-- 210 rows in two distinct (store, half) combinations: with that many rows
-- per combination the advisor recommends evaluating the horizontal
-- aggregation from the vertical pre-aggregate FV (PCT105).
CREATE TABLE t (store INTEGER, half INTEGER, amt INTEGER);
INSERT INTO t VALUES
  (1,0,5),(1,1,6),(1,0,7),(1,1,8),(1,0,9),(1,1,10),(1,0,11),
  (1,1,12),(1,0,13),(1,1,14),(1,0,15),(1,1,16),(1,0,17),(1,1,18);
INSERT INTO t SELECT x.store, x.half, x.amt FROM t x, t y;
SELECT store, sum(amt BY half)
FROM t GROUP BY store
ORDER BY store;
