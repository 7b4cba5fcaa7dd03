package diag

import "errors"

// Stable diagnostic codes. PCT0xx are error-class rule violations (the
// planner rejects the query); PCT1xx are warning/advisory-class findings
// from the linter's data-aware checks. Codes are append-only: a published
// code never changes meaning.
const (
	// CodeSyntax is a lexical or syntax error from the SQL parser.
	CodeSyntax = "PCT000"

	// CodeMixedClasses: Vpct combined with Hpct or a BY-aggregate in one
	// statement (listed as future work in the paper).
	CodeMixedClasses = "PCT001"
	// CodeHpctWithHagg: Hpct combined with other horizontal aggregations.
	CodeHpctWithHagg = "PCT002"
	// CodeMultiTable: percentage queries must read from a single table F.
	CodeMultiTable = "PCT003"
	// CodeHaving: HAVING with percentage aggregations.
	CodeHaving = "PCT004"
	// CodeDistinct: SELECT DISTINCT with percentage aggregations.
	CodeDistinct = "PCT005"
	// CodeSelectStar: SELECT * with percentage aggregations.
	CodeSelectStar = "PCT006"
	// CodeGroupByPosition: GROUP BY position out of range or not a column.
	CodeGroupByPosition = "PCT007"
	// CodeGroupByUnknown: GROUP BY names a column not in F.
	CodeGroupByUnknown = "PCT008"
	// CodeGroupByDuplicate: duplicate GROUP BY column.
	CodeGroupByDuplicate = "PCT009"
	// CodeUnknownTable: the FROM table does not exist in the catalog.
	CodeUnknownTable = "PCT010"
	// CodeNotGrouped: a bare select column does not appear in GROUP BY.
	CodeNotGrouped = "PCT011"
	// CodeWindowMix: an OVER window aggregate mixed with percentage
	// aggregations.
	CodeWindowMix = "PCT012"
	// CodeNestedAgg: a percentage aggregation nested inside an expression
	// instead of being a top-level select item.
	CodeNestedAgg = "PCT013"
	// CodeBadSelectItem: a select item that is neither a grouping column
	// nor an aggregate.
	CodeBadSelectItem = "PCT014"
	// CodeVpctNoGroupBy: Vpct without a GROUP BY clause.
	CodeVpctNoGroupBy = "PCT015"
	// CodeVpctNoArg: Vpct without an expression argument.
	CodeVpctNoArg = "PCT016"
	// CodeVpctBySubset: Vpct BY list not a proper subset of GROUP BY.
	CodeVpctBySubset = "PCT017"
	// CodeVpctByUnknown: Vpct BY column not one of the GROUP BY columns.
	CodeVpctByUnknown = "PCT018"
	// CodeByRequired: Hpct or a horizontal aggregate without a BY list.
	CodeByRequired = "PCT019"
	// CodeByNotDisjoint: Hpct/Hagg BY column also in GROUP BY.
	CodeByNotDisjoint = "PCT020"
	// CodeByUnknown: Hpct/Hagg BY column not a column of F.
	CodeByUnknown = "PCT021"
	// CodeByDuplicate: duplicate column in a BY list.
	CodeByDuplicate = "PCT022"
	// CodeAggNoArg: an aggregate that requires an argument lacks one.
	CodeAggNoArg = "PCT023"
	// CodeUnknownMeasure: a measure expression references an unknown
	// column.
	CodeUnknownMeasure = "PCT024"

	// CodeDivZeroRisk: a Vpct super-group total can be zero or NULL, so
	// percentages come out NULL (the paper's division-by-zero treatment).
	CodeDivZeroRisk = "PCT101"
	// CodeMissingRows: some grouping/subgrouping combinations are absent
	// from F, so result rows (Vpct) or cells (Hpct/Hagg) are silently
	// missing or NULL.
	CodeMissingRows = "PCT102"
	// CodeColumnExplosion: the number of distinct BY combinations exceeds
	// (or approaches) the DBMS column limit.
	CodeColumnExplosion = "PCT103"
	// CodeUnorderedResult: a horizontal query without ORDER BY has
	// implementation-defined row order.
	CodeUnorderedResult = "PCT104"
	// CodeStrategy: the advisor recommends non-default evaluation strategy
	// knobs for this query.
	CodeStrategy = "PCT105"
	// CodeContradiction: interval analysis proves the WHERE predicate set
	// unsatisfiable — the query returns no rows.
	CodeContradiction = "PCT106"
	// CodeTautology: a WHERE predicate is always true (or true for every
	// non-NULL value), so it constrains nothing.
	CodeTautology = "PCT107"
	// CodeZeroDenominator: the WHERE clause pins a Vpct/Hpct measure to
	// zero, so the percentage denominator is provably zero — the static
	// sharpening of PCT101.
	CodeZeroDenominator = "PCT108"
	// CodeCmpTypeMismatch: a comparison mixes incompatible types; mixed
	// kinds order by type tag, so the predicate never matches on value.
	CodeCmpTypeMismatch = "PCT109"
	// CodeVpctByDuplicate: duplicate dimension in a Vpct BY list (PCT022
	// covers horizontal BY lists as an error). For grouping-set queries the
	// check runs per lattice node: a BY dimension duplicated within one
	// grouping set fires even when other sets are fine.
	CodeVpctByDuplicate = "PCT110"
	// CodeEmptyGroupingSets: ROLLUP()/CUBE() with no dimensions, or
	// GROUPING SETS with no sets — the lattice would be empty (or only the
	// grand total), which is never what a cube query means.
	CodeEmptyGroupingSets = "PCT111"
	// CodeDuplicateGroupingSet: the same grouping set appears more than
	// once (explicitly, or via duplicate CUBE/ROLLUP dimensions). The
	// engine evaluates each distinct set once, so the duplicate adds no
	// rows and usually means a different set was intended.
	CodeDuplicateGroupingSet = "PCT112"
	// CodeGroupingMisuse: GROUPING() used outside a grouping-set query, or
	// naming a column that is not a lattice dimension.
	CodeGroupingMisuse = "PCT113"

	// PCT2xx are runtime lifecycle codes: they classify how a statement
	// ended when the query-governance layer stopped it, not what the linter
	// found in its text. The linter never emits them; the engine's typed
	// runtime errors carry them so dashboards can aggregate cancellations,
	// limit hits, and contained panics by code.

	// CodeCancelled: the statement's context was cancelled by the caller.
	CodeCancelled = "PCT200"
	// CodeDeadline: the statement exceeded its per-statement deadline.
	CodeDeadline = "PCT201"
	// CodeRowLimit: materialized rows exceeded Limits.MaxRows.
	CodeRowLimit = "PCT202"
	// CodeGroupLimit: aggregation groups exceeded Limits.MaxGroups.
	CodeGroupLimit = "PCT203"
	// CodePivotLimit: horizontal result columns exceeded
	// Limits.MaxPivotColumns (the paper's "exceeds the maximum number of
	// columns" failure mode, surfaced as a governed error).
	CodePivotLimit = "PCT204"
	// CodeByteBudget: approximate materialized bytes exceeded
	// Limits.MaxBytes.
	CodeByteBudget = "PCT205"
	// CodePanic: a panic inside statement execution was recovered and
	// contained; the error carries the panic value and stack.
	CodePanic = "PCT206"

	// PCT21x are the codes of the multi-tenant server front door
	// (internal/server). The admission refusals, PCT210–PCT212, are
	// retryable: the statement was never executed, and the wire error
	// carries a backoff hint.

	// CodeQueueFull: the tenant's admission queue is at MaxQueue; the
	// statement was shed before queuing.
	CodeQueueFull = "PCT210"
	// CodeTenantCap: the tenant is at its session or concurrent-statement
	// cap (with no queue configured); the connect or statement is refused.
	CodeTenantCap = "PCT211"
	// CodeDrainRejected: the server is draining; new connects and queued
	// statements are refused so in-flight work can finish.
	CodeDrainRejected = "PCT212"
	// CodeSessionTimeout: the session sat idle past the server's
	// per-session timeout and was closed.
	CodeSessionTimeout = "PCT213"
	// CodeUnencodable: the statement ran, but its result cannot go over the
	// wire — a non-finite REAL, which JSON has no number for, or a frame
	// over the size cap. The request is answered with this error and the
	// session stays open.
	CodeUnencodable = "PCT214"
)

// CodeInfo describes one diagnostic code for the registry.
type CodeInfo struct {
	Code string
	// DefaultSeverity is the severity the analyzer assigns findings with
	// this code.
	DefaultSeverity Severity
	// Title is a one-line summary of what the code flags.
	Title string
	// Note ties the check to the paper's usage rules or failure modes.
	Note string
	// Runtime marks lifecycle codes (PCT2xx) attached to typed runtime
	// errors by the engine's governance layer. The linter never emits them,
	// so corpus-coverage tests skip them.
	Runtime bool
}

// Registry lists every diagnostic code in order. cmd/pctlint -codes prints
// it; the docs catalogue derives from the same data.
var Registry = []CodeInfo{
	{CodeSyntax, Error, "SQL syntax error", "the statement does not parse; nothing can be checked", false},
	{CodeMixedClasses, Error, "Vpct mixed with horizontal aggregations", "combining vertical and horizontal percentage aggregations is future work in the paper", false},
	{CodeHpctWithHagg, Error, "Hpct mixed with other horizontal aggregations", "one transposition layout per statement", false},
	{CodeMultiTable, Error, "percentage query reads more than one table", "the paper defines Vpct/Hpct over a single table or view F; pre-join first", false},
	{CodeHaving, Error, "HAVING with percentage aggregations", "percentages are computed by a generated multi-statement plan; HAVING has no defined slot", false},
	{CodeDistinct, Error, "SELECT DISTINCT with percentage aggregations", "DISTINCT would drop rows after percentages are computed", false},
	{CodeSelectStar, Error, "SELECT * with percentage aggregations", "the select list must name grouping columns and aggregates explicitly", false},
	{CodeGroupByPosition, Error, "invalid GROUP BY position", "a position must index a bare column select item", false},
	{CodeGroupByUnknown, Error, "GROUP BY column not in F", "grouping columns D1..Dk must be columns of F", false},
	{CodeGroupByDuplicate, Error, "duplicate GROUP BY column", "each grouping column may appear once", false},
	{CodeUnknownTable, Error, "unknown table", "F must exist in the catalog", false},
	{CodeNotGrouped, Error, "select column not in GROUP BY", "non-aggregated select items must be grouping columns", false},
	{CodeWindowMix, Error, "window aggregate mixed with percentage aggregation", "OVER(PARTITION BY) is the paper's comparison baseline, not composable with Vpct/Hpct", false},
	{CodeNestedAgg, Error, "percentage aggregation nested in expression", "Vpct/Hpct must be top-level select items", false},
	{CodeBadSelectItem, Error, "select item neither grouping column nor aggregate", "percentage queries follow the GROUP BY select-list rules", false},
	{CodeVpctNoGroupBy, Error, "Vpct without GROUP BY", "Vpct is a two-level aggregation; rule of Section 3.1", false},
	{CodeVpctNoArg, Error, "Vpct without an argument", "Vpct needs a measure expression to total", false},
	{CodeVpctBySubset, Error, "Vpct BY list not a proper subset of GROUP BY", "the BY clause can have as many as k-1 columns (Section 3.1)", false},
	{CodeVpctByUnknown, Error, "Vpct BY column not in GROUP BY", "BY columns select the subgrouping Dj+1..Dk out of the GROUP BY list", false},
	{CodeByRequired, Error, "Hpct/horizontal aggregate without BY", "the BY list defines the transposed columns (Section 3.2)", false},
	{CodeByNotDisjoint, Error, "BY column also in GROUP BY", "Hpct BY columns must be disjoint from the GROUP BY columns (Section 3.2)", false},
	{CodeByUnknown, Error, "BY column not in F", "subgrouping columns must be columns of F", false},
	{CodeByDuplicate, Error, "duplicate BY column", "each subgrouping column may appear once", false},
	{CodeAggNoArg, Error, "aggregate without required argument", "only count(*) may omit the argument", false},
	{CodeUnknownMeasure, Error, "measure references unknown column", "measure expressions resolve against the schema of F", false},
	{CodeDivZeroRisk, Warning, "division-by-zero risk: totals can be zero or NULL", "the paper's Section on correctness: zero totals make percentages NULL", false},
	{CodeMissingRows, Warning, "missing rows: absent grouping combinations", "the paper's missing-rows failure mode; pre-/post-processing treatments apply", false},
	{CodeColumnExplosion, Warning, "Hpct column explosion vs DBMS column limit", "Hpct creates one column per BY combination; beyond the limit the result is partitioned", false},
	{CodeUnorderedResult, Advisory, "result row order not guaranteed", "add ORDER BY on the grouping columns for stable output", false},
	{CodeStrategy, Advisory, "non-default evaluation strategy recommended", "the advisor's choice from live statistics: from FV when F holds many rows per distinct D1..Dk combination", false},
	{CodeContradiction, Warning, "contradictory WHERE predicates (query returns no rows)", "interval analysis over the WHERE clause proves the predicate set unsatisfiable", false},
	{CodeTautology, Advisory, "tautological WHERE predicate (constrains nothing)", "the predicate accepts every value (or every non-NULL value); state the intent directly or drop it", false},
	{CodeZeroDenominator, Warning, "percentage denominator provably zero", "the WHERE clause pins the measure to 0, so every percentage is NULL — the static sharpening of PCT101", false},
	{CodeCmpTypeMismatch, Warning, "comparison between incompatible types", "mixed-kind values order by type tag, not content, so the predicate never matches on value", false},
	{CodeVpctByDuplicate, Warning, "duplicate Vpct BY dimension", "the duplicate changes nothing and usually means a different column was intended; PCT022 covers horizontal BY lists; for grouping-set queries the check runs per lattice node", false},
	{CodeEmptyGroupingSets, Error, "empty ROLLUP/CUBE/GROUPING SETS", "ROLLUP()/CUBE() with no dimensions or GROUPING SETS with no sets defines no lattice to evaluate", false},
	{CodeDuplicateGroupingSet, Warning, "duplicate grouping set", "each distinct grouping set is evaluated once; the duplicate adds no rows and usually means a different set was intended", false},
	{CodeGroupingMisuse, Error, "GROUPING() misuse", "GROUPING() is only defined for ROLLUP/CUBE/GROUPING SETS queries and must name lattice dimensions", false},
	{CodeCancelled, Error, "statement cancelled", "the caller cancelled the statement's context; partial work is discarded", true},
	{CodeDeadline, Error, "statement deadline exceeded", "the per-statement deadline (Limits.Timeout) elapsed mid-execution", true},
	{CodeRowLimit, Error, "materialized-row limit exceeded", "Limits.MaxRows bounds rows a statement may materialize, instead of exhausting memory", true},
	{CodeGroupLimit, Error, "group limit exceeded", "Limits.MaxGroups bounds distinct GROUP BY / DISTINCT groups, the other unbounded hash state", true},
	{CodePivotLimit, Error, "pivot column limit exceeded", "Limits.MaxPivotColumns is a hard cap on horizontal result width — the paper's DBMS column-limit failure mode as a governed error", true},
	{CodeByteBudget, Error, "byte budget exceeded", "Limits.MaxBytes bounds approximate materialized bytes; parallel aggregation degrades to sequential under pressure before failing", true},
	{CodePanic, Error, "panic recovered in statement execution", "a worker or dispatch panic is contained into an error carrying the stack, keeping the engine usable", true},
	{CodeQueueFull, Error, "admission queue full", "the tenant's bounded admission queue is at MaxQueue; retry after the backoff hint instead of piling on", true},
	{CodeTenantCap, Error, "tenant cap reached", "the tenant is at its session or concurrent-statement cap; the connect or statement is refused, not queued", true},
	{CodeDrainRejected, Error, "server draining", "the server stopped admitting for graceful shutdown; in-flight statements finish, queued and new work is refused", true},
	{CodeSessionTimeout, Error, "session idle timeout", "the session sat idle past the server's per-session timeout and was closed; reconnect to continue", true},
	{CodeUnencodable, Error, "result not encodable for the wire", "a non-finite REAL (JSON has no NaN or Infinity) or a frame over the size cap fails the request, not the session", true},
}

// Lookup returns the registry entry for a code, if known.
func Lookup(code string) (CodeInfo, bool) {
	for _, ci := range Registry {
		if ci.Code == code {
			return ci, true
		}
	}
	return CodeInfo{}, false
}

// CodeOf is the one error→code rule: the stable PCTxxx code of the first
// error in err's tree (wrapped or joined) that carries one through a
// Code() string method — planner rejections, syntax errors, the engine's
// lifecycle errors, admission refusals — or "" when err is nil or uncoded.
// A caller that needs a word for an uncoded failure supplies its own.
func CodeOf(err error) string {
	var coded interface{ Code() string }
	if err != nil && errors.As(err, &coded) {
		return coded.Code()
	}
	return ""
}
