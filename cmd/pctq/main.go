// Command pctq is an interactive SQL shell for the percentage-aggregation
// engine. It accepts standard SQL plus the paper's extensions (Vpct, Hpct,
// BY-aggregates, OVER/PARTITION BY, and percentage cubes via GROUP BY
// ROLLUP/CUBE/GROUPING SETS with GROUPING() markers) and a few backslash
// meta-commands.
//
// Usage:
//
//	pctq                 # interactive shell
//	pctq -e "SQL"        # execute one statement/script and exit
//	pctq -f script.sql   # execute a file and exit
//	pctq -demo           # preload the paper's example tables
//	pctq -timeout 5s     # per-statement deadline (PCT201 on expiry)
//	pctq -connect host:port -tenant etl   # shell against a pctserve server
//
// Ctrl-C cancels the in-flight statement (typed PCT200 error, tables left
// intact) instead of killing the shell; a second Ctrl-C within a second
// quits. With -connect the cancel travels over the wire to the server.
//
// In -connect mode statements run on the remote server under its tenant's
// admission control; meta-commands other than \q and \timing are
// local-only and politely refused.
//
// Meta-commands inside the shell:
//
//	\dt                 list tables
//	\explain <query>    show the generated standard-SQL plan
//	\lint <query>       statically check a query (pctlint diagnostics)
//	\olap <query>       show the ANSI OLAP window-function equivalent
//	\strategy           show the active evaluation strategies
//	\strategy <k>=<v>   set a strategy knob (see \strategy help)
//	\timing             toggle per-statement wall-time reporting
//	\trace on|off       print the execution trace after each query
//	\stats              dump the process metrics registry as JSON
//	\statements         top statements by total time (pct_stat_statements)
//	\activity           statements executing right now (pct_stat_activity)
//	\recent             flight recorder, newest first (pct_trace_recent)
//	\cache [on|off|flush]  summary cache: show stats, toggle, or flush
//	\import <table> <file.csv>   load a CSV (header row, schema inferred)
//	\export <file.csv> <query>   write a query result as CSV
//	\save <file>        snapshot every table to a file
//	\load <file>        restore a snapshot
//	\q                  quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/pctagg"
)

func main() {
	exec := flag.String("e", "", "execute this SQL and exit")
	file := flag.String("f", "", "execute this SQL file and exit")
	demo := flag.Bool("demo", false, "preload the paper's example tables (sales, daily)")
	stats := flag.Bool("stats", false, "print the metrics registry as JSON on exit")
	timeout := flag.Duration("timeout", 0, "per-statement deadline (0 = none), e.g. 5s")
	connect := flag.String("connect", "", "run against a pctserve server at this host:port instead of in-process")
	tenant := flag.String("tenant", "", "tenant name for -connect (empty = the default profile)")
	flag.Parse()

	sh := &shell{timeout: *timeout}
	if *connect != "" {
		c, err := server.Dial(*connect, *tenant)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		sh.client = c
	} else {
		db := pctagg.Open()
		if err := db.EnableIntrospection(pctagg.IntrospectionConfig{}); err != nil {
			fatal(err)
		}
		sh.db = db
	}
	sh.installSignals()
	if *demo {
		if err := sh.loadDemo(); err != nil {
			fatal(err)
		}
		fmt.Println("demo tables loaded: sales (paper Table 1), daily (stores × weekdays)")
	}

	switch {
	case *exec != "":
		if err := sh.runScript(*exec); err != nil {
			fatal(err)
		}
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		if err := sh.runScript(string(data)); err != nil {
			fatal(err)
		}
	default:
		sh.repl()
	}
	if *stats && sh.db != nil {
		fmt.Println(sh.db.MetricsJSON())
	}
}

// shell holds the REPL's toggles: \timing (wall time per statement) and
// \trace (execution trace after each query), plus the per-statement
// deadline from -timeout. Exactly one of db (in-process) and client
// (-connect) is set.
type shell struct {
	db      *pctagg.DB
	client  *server.Client
	timing  bool
	trace   bool
	cache   bool
	timeout time.Duration

	// inflight is the cancel func of the statement currently running, for
	// the persistent Ctrl-C handler; nil when the shell is idle.
	inflight atomic.Pointer[context.CancelFunc]
}

// installSignals wires the shell's persistent interrupt handling: the
// first Ctrl-C cancels the in-flight statement (typed PCT200, tables
// intact — over the wire in -connect mode), and a second Ctrl-C within a
// second quits the shell.
func (sh *shell) installSignals() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		var last time.Time
		for range sigs {
			now := time.Now()
			if now.Sub(last) < time.Second {
				fmt.Fprintln(os.Stderr, "\npctq: interrupted twice, quitting")
				os.Exit(130)
			}
			last = now
			if cancel := sh.inflight.Load(); cancel != nil {
				(*cancel)()
				fmt.Fprintln(os.Stderr, " (statement cancelled; Ctrl-C again within 1s to quit)")
			} else {
				fmt.Fprintln(os.Stderr, " (Ctrl-C again within 1s to quit)")
			}
		}
	}()
}

// statementCtx builds the lifecycle context for one statement: the
// -timeout deadline if one was set, with the statement's cancel published
// for the interrupt handler. The returned stop func withdraws it again.
func (sh *shell) statementCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	cancelTimeout := context.CancelFunc(func() {})
	if sh.timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, sh.timeout)
	}
	sh.inflight.Store(&cancel)
	return ctx, func() {
		sh.inflight.Store(nil)
		cancel()
		cancelTimeout()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pctq:", err)
	os.Exit(1)
}

// runScript executes statements one by one, printing query results.
func (sh *shell) runScript(script string) error {
	for _, stmt := range splitStatements(script) {
		if err := sh.runOne(stmt); err != nil {
			return err
		}
	}
	return nil
}

func (sh *shell) runOne(stmt string) error {
	start := time.Now()
	ctx, stop := sh.statementCtx()
	defer stop()
	if sh.client != nil {
		res, err := sh.client.Do(ctx, stmt)
		if err != nil {
			return err
		}
		if len(res.Columns) > 0 {
			rows := &pctagg.Rows{Columns: res.Columns, Data: res.Rows}
			fmt.Print(rows.String())
		} else {
			fmt.Printf("ok (%d rows affected)\n", res.Affected)
		}
		sh.reportTime(start)
		return nil
	}
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "EXPLAIN") {
		var rows *pctagg.Rows
		var trace *pctagg.Span
		var err error
		if sh.trace {
			rows, trace, err = sh.db.QueryTracedCtx(ctx, stmt)
		} else {
			rows, err = sh.db.QueryCtx(ctx, stmt)
		}
		if err != nil {
			return err
		}
		fmt.Print(rows.String())
		if trace != nil {
			fmt.Print(trace.Format())
		}
		sh.reportTime(start)
		return nil
	}
	n, err := sh.db.ExecCtx(ctx, stmt)
	if err != nil {
		return err
	}
	fmt.Printf("ok (%d rows affected)\n", n)
	sh.reportTime(start)
	return nil
}

func (sh *shell) reportTime(start time.Time) {
	if sh.timing {
		fmt.Printf("Time: %s\n", time.Since(start))
	}
}

// splitStatements splits on top-level semicolons, respecting string
// literals.
func splitStatements(script string) []string {
	var out []string
	var sb strings.Builder
	inStr := false
	for i := 0; i < len(script); i++ {
		ch := script[i]
		if ch == '\'' {
			inStr = !inStr
		}
		if ch == ';' && !inStr {
			if s := strings.TrimSpace(sb.String()); s != "" {
				out = append(out, s)
			}
			sb.Reset()
			continue
		}
		sb.WriteByte(ch)
	}
	if s := strings.TrimSpace(sb.String()); s != "" {
		out = append(out, s)
	}
	return out
}

func (sh *shell) repl() {
	fmt.Println("pctq — percentage aggregations shell. \\q quits, \\dt lists tables.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := "pctq> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if sh.meta(trimmed) {
				return
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if !strings.Contains(line, ";") {
			prompt = "  ... "
			continue
		}
		script := pending.String()
		pending.Reset()
		prompt = "pctq> "
		if err := sh.runScript(script); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// meta handles backslash commands; returns true to quit. In -connect mode
// only the session-local toggles work: everything else inspects or mutates
// in-process engine state the remote server does not expose.
func (sh *shell) meta(cmd string) bool {
	db := sh.db
	fields := strings.Fields(cmd)
	if sh.client != nil {
		switch fields[0] {
		case "\\q", "\\quit":
			return true
		case "\\timing":
			sh.timing = !sh.timing
			fmt.Printf("timing %s\n", onOff(sh.timing))
		default:
			fmt.Fprintf(os.Stderr, "error: %s is local-only and not available over -connect (plain SQL, \\q, and \\timing work; try SELECT * FROM pct_stat_sessions)\n", fields[0])
		}
		return false
	}
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\timing":
		sh.timing = !sh.timing
		fmt.Printf("timing %s\n", onOff(sh.timing))
	case "\\trace":
		switch {
		case len(fields) == 1:
			sh.trace = !sh.trace
		case fields[1] == "on":
			sh.trace = true
		case fields[1] == "off":
			sh.trace = false
		default:
			fmt.Fprintln(os.Stderr, "usage: \\trace [on|off]")
			return false
		}
		fmt.Printf("trace %s\n", onOff(sh.trace))
	case "\\stats":
		fmt.Println(db.MetricsJSON())
	case "\\statements":
		sh.introQuery(`SELECT fingerprint, query, calls, errors, total_ms, mean_ms, p50_ms, p99_ms,
			rows_out, rows_scanned, cache_hits, cache_misses
			FROM pct_stat_statements WHERE top = 1 ORDER BY total_ms DESC`)
	case "\\activity":
		sh.introQuery(`SELECT sid, query, state, elapsed_ms, rows_scanned, rows_out
			FROM pct_stat_activity ORDER BY sid`)
	case "\\recent":
		sh.introQuery(`SELECT seq, query, elapsed_ms, rows_out, rows_scanned, error_code, stages
			FROM pct_trace_recent ORDER BY seq DESC`)
	case "\\cache":
		switch {
		case len(fields) == 1:
			s := db.SummaryCacheStats()
			fmt.Printf("summary cache %s\n", onOff(sh.cache))
			fmt.Printf("hits=%d misses=%d invalidations=%d delta_applied=%d delta_fallback=%d fj_rollups=%d\n",
				s.Hits, s.Misses, s.Invalidations, s.DeltaApplied, s.DeltaFallback, s.FjRollups)
		case fields[1] == "on":
			sh.cache = true
			db.EnableSummaryCache(true)
			fmt.Println("summary cache on")
		case fields[1] == "off":
			sh.cache = false
			db.EnableSummaryCache(false)
			db.FlushSummaries()
			fmt.Println("summary cache off (summaries flushed)")
		case fields[1] == "flush":
			db.FlushSummaries()
			fmt.Println("summaries flushed")
		default:
			fmt.Fprintln(os.Stderr, "usage: \\cache [on|off|flush]")
		}
	case "\\dt":
		for _, t := range db.Tables() {
			fmt.Println(t)
		}
	case "\\explain":
		q := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		sql, err := db.Explain(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Print(sql)
	case "\\lint":
		q := strings.TrimSpace(strings.TrimPrefix(cmd, "\\lint"))
		if q == "" {
			fmt.Fprintln(os.Stderr, "usage: \\lint <query>")
			return false
		}
		ds := db.Lint(q)
		if len(ds) == 0 {
			fmt.Println("ok: no findings")
			return false
		}
		for _, d := range ds {
			fmt.Println(d)
		}
	case "\\olap":
		q := strings.TrimSpace(strings.TrimPrefix(cmd, "\\olap"))
		sql, err := db.OLAPEquivalent(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Println(sql)
	case "\\import":
		if len(fields) != 3 {
			fmt.Fprintln(os.Stderr, "usage: \\import <table> <file.csv>")
			return false
		}
		f, err := os.Open(fields[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		defer f.Close()
		n, err := db.LoadCSV(fields[1], f, pctagg.CSVOptions{Header: true, CreateTable: !hasTable(db, fields[1])})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Printf("loaded %d rows into %s\n", n, fields[1])
	case "\\export":
		if len(fields) < 3 {
			fmt.Fprintln(os.Stderr, "usage: \\export <file.csv> <query>")
			return false
		}
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\export"))
		q := strings.TrimSpace(strings.TrimPrefix(rest, fields[1]))
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		defer f.Close()
		if err := db.WriteCSV(f, q, ""); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Printf("wrote %s\n", fields[1])
	case "\\save":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\save <file>")
			return false
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		defer f.Close()
		if err := db.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Printf("saved %d tables to %s\n", len(db.Tables()), fields[1])
	case "\\load":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\load <file>")
			return false
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		defer f.Close()
		if err := db.Load(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return false
		}
		fmt.Printf("restored; tables: %v\n", db.Tables())
	case "\\strategy":
		if len(fields) == 1 {
			s := db.GetStrategies()
			fmt.Printf("vpct: coarseTotalsFromF=%v updateInPlace=%v subkeyIndexes=%v missingRows=%q\n",
				s.Vpct.CoarseTotalsFromF, s.Vpct.UpdateInPlace, s.Vpct.SubkeyIndexes, s.Vpct.MissingRows)
			fmt.Printf("hpct: fromVertical=%v\n", s.Hpct.FromVertical)
			fmt.Printf("hagg: spj=%v fromVertical=%v\n", s.Hagg.SPJ, s.Hagg.FromVertical)
			return false
		}
		s := db.GetStrategies()
		for _, kv := range fields[1:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				fmt.Fprintf(os.Stderr, "error: expected key=value, got %q\n", kv)
				return false
			}
			on := parts[1] == "true" || parts[1] == "on" || parts[1] == "1"
			switch strings.ToLower(parts[0]) {
			case "vpct.fjfromf":
				s.Vpct.CoarseTotalsFromF = on
			case "vpct.update":
				s.Vpct.UpdateInPlace = on
			case "vpct.indexes":
				s.Vpct.SubkeyIndexes = on
			case "vpct.missing":
				s.Vpct.MissingRows = parts[1]
			case "hpct.fromfv":
				s.Hpct.FromVertical = on
			case "hagg.spj":
				s.Hagg.SPJ = on
			case "hagg.fromfv":
				s.Hagg.FromVertical = on
			default:
				fmt.Fprintf(os.Stderr, "error: unknown knob %q (vpct.fjfromf, vpct.update, vpct.indexes, vpct.missing, hpct.fromfv, hagg.spj, hagg.fromfv)\n", parts[0])
				return false
			}
		}
		db.SetStrategies(s)
		fmt.Println("ok")
	default:
		fmt.Fprintf(os.Stderr, "error: unknown command %s\n", fields[0])
	}
	return false
}

// introQuery runs a SELECT over one of the pct_stat_* catalog tables and
// prints the result, reporting errors in the usual meta-command style.
func (sh *shell) introQuery(sql string) {
	rows, err := sh.db.Query(sql)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Print(rows.String())
}

// hasTable reports whether the database already has the named table.
func hasTable(db *pctagg.DB, name string) bool {
	for _, t := range db.Tables() {
		if strings.EqualFold(t, name) {
			return true
		}
	}
	return false
}

// loadDemo creates the paper's Table 1 sales table and the store/day
// table — locally in one Exec, or statement by statement over the wire in
// -connect mode (where the server may refuse duplicates if another client
// already loaded them).
func (sh *shell) loadDemo() error {
	if sh.client != nil {
		for _, stmt := range splitStatements(workload.DemoSQL) {
			if _, err := sh.client.Do(context.Background(), stmt); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := sh.db.Exec(workload.DemoSQL)
	return err
}

// onOff renders a toggle state.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
