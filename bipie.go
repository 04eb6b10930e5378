// Package bipie is a Go implementation of BIPie — Business Intelligence
// ProcessIng on Encoded Data — the columnstore scan engine for fast
// selection and aggregation described in "BIPie: Fast Selection and
// Aggregation on Encoded Data using Operator Specialization" (Nowakiewicz,
// Boutin, Hanson, Walzer, Katipally; SIGMOD 2018).
//
// BIPie executes queries of the form
//
//	SELECT g..., COUNT(*), SUM(e1), ..., SUM(en)
//	FROM t WHERE <filter> GROUP BY g...
//
// directly on encoded columnar data: bit-packed integers stay packed until
// the latest possible moment, dictionary ids double as perfect group
// hashes, and the scan picks among specialized selection operators (gather,
// compaction, special group assignment) per batch and specialized
// aggregation strategies (in-register, sort-based, multi-aggregate) per
// segment.
//
// Quickstart:
//
//	tbl, _ := bipie.NewTable(bipie.Schema{
//		{Name: "region", Type: bipie.String},
//		{Name: "amount", Type: bipie.Int64},
//	})
//	tbl.AppendRow("emea", int64(120))
//	tbl.AppendRow("apac", int64(80))
//	tbl.Flush()
//	res, _ := bipie.Run(tbl, &bipie.Query{
//		GroupBy:    []string{"region"},
//		Aggregates: []bipie.Aggregate{bipie.CountStar(), bipie.SumOf(bipie.Col("amount"))},
//	}, bipie.Options{})
//	fmt.Print(res.Format())
package bipie

import (
	"io"

	"bipie/internal/agg"
	"bipie/internal/costmodel"
	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/obs"
	"bipie/internal/sel"
	"bipie/internal/sql"
	"bipie/internal/table"
)

// Table is a columnstore table: immutable encoded segments plus a mutable
// write region sealed by Flush.
type Table = table.Table

// Schema declares a table's columns.
type Schema = table.Schema

// Column is one schema entry.
type Column = table.Column

// Column types.
const (
	// Int64 marks a 64-bit integer column (use scaled integers for
	// fixed-point decimals).
	Int64 = table.Int64
	// String marks a string column, dictionary-encoded per segment.
	String = table.String
)

// NewTable creates an empty table.
func NewTable(schema Schema, opts ...table.Option) (*Table, error) { return table.New(schema, opts...) }

// LoadTable deserializes a table previously written with Table.WriteTo
// (schema plus immutable encoded segments, checksummed per segment).
func LoadTable(r io.Reader) (*Table, error) { return table.Load(r) }

// WithSegmentRows overrides the ~1M default rows per segment.
func WithSegmentRows(n int) table.Option { return table.WithSegmentRows(n) }

// Query is the aggregation query shape BIPie executes on encoded data.
type Query = engine.Query

// Aggregate is one aggregate output column.
type Aggregate = engine.Aggregate

// Result is a completed query result, rows sorted by group key.
type Result = engine.Result

// Row is one result group.
type Row = engine.Row

// Stat is the (count, sum) state of one aggregate in one group.
type Stat = engine.Stat

// Options tune a scan; the zero value uses runtime strategy selection and
// all CPUs.
type Options = engine.Options

// AggKind selects an aggregate function when building an Aggregate by hand
// (the CountStar/SumOf/AvgOf helpers cover the common cases).
type AggKind = engine.AggKind

// Aggregate kinds.
const (
	KindCount = engine.Count
	KindSum   = engine.Sum
	KindAvg   = engine.Avg
	KindMin   = engine.Min
	KindMax   = engine.Max
)

// CountStar builds COUNT(*).
func CountStar() Aggregate { return engine.CountStar() }

// SumOf builds SUM(e).
func SumOf(e Expr) Aggregate { return engine.SumOf(e) }

// AvgOf builds AVG(e).
func AvgOf(e Expr) Aggregate { return engine.AvgOf(e) }

// MinOf builds MIN(e).
func MinOf(e Expr) Aggregate { return engine.MinOf(e) }

// MaxOf builds MAX(e).
func MaxOf(e Expr) Aggregate { return engine.MaxOf(e) }

// ParseSQL parses one SELECT statement of the supported shape —
//
//	SELECT g..., count(*), sum(e)..., avg(e), min(e), max(e)
//	FROM t [WHERE predicate] [GROUP BY g...]
//
// — returning the query and the scanned table's name. Results are always
// ordered by group key, so ORDER BY is rejected rather than silently
// ignored.
func ParseSQL(src string) (*Query, string, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, "", err
	}
	return st.Query, st.Table, nil
}

// Run executes a query with the BIPie fused scan. It is the one-shot form
// of Prepare followed by Prepared.Run; callers issuing the same query
// repeatedly or concurrently should Prepare once and share the Prepared.
func Run(t *Table, q *Query, opts Options) (*Result, error) { return engine.Run(t, q, opts) }

// Prepared is a query compiled against a table: an immutable, shareable
// plan per segment plus a pool of per-scan execution state. It executes two
// ways: RunTraced(ctx, trace) returns the result with that scan's own
// ScanStats (and, given a ScanTrace, its per-phase attribution), Run(ctx)
// the result alone. One Prepared serves any number of goroutines calling
// either concurrently, with zero steady-state allocation on the scan path.
// Table writes stay visible: each execution re-lists the table's segments
// and plans unseen ones on demand, and rows deleted after Prepare drop out
// of the next execution, since deletes are read per batch, never planned.
type Prepared = engine.Prepared

// Prepare compiles a query against a table for repeated or concurrent
// execution:
//
//	p, _ := bipie.Prepare(tbl, q, bipie.Options{})
//	var wg sync.WaitGroup
//	for i := 0; i < 8; i++ {
//		wg.Add(1)
//		go func() { defer wg.Done(); res, _ := p.Run(ctx); use(res) }()
//	}
//	wg.Wait()
//
// Cancelling the context passed to Run stops the scan between batches.
func Prepare(t *Table, q *Query, opts Options) (*Prepared, error) {
	return engine.Prepare(t, q, opts)
}

// SegmentPlan describes the per-segment specialization decisions a query
// would execute with — group domain, aggregation strategy, filter
// pushdown, special-group fusion, metadata elimination.
type SegmentPlan = engine.SegmentPlan

// Explain reports the per-segment execution plan without scanning data.
func Explain(t *Table, q *Query, opts Options) ([]SegmentPlan, error) {
	return engine.Explain(t, q, opts)
}

// FormatPlans renders segment plans as an aligned text table.
func FormatPlans(plans []SegmentPlan) string { return engine.FormatPlans(plans) }

// AnalyzeReport is Explain plus measurement: the per-segment plans, the
// query result, and the measured per-phase cycles/row breakdown
// (AnalyzeReport.Format renders it; TracedCyclesPerRow, MeasuredCyclesPerRow
// and Coverage summarize it).
type AnalyzeReport = engine.AnalyzeReport

// PhaseCost is one scan phase's share of a measured scan.
type PhaseCost = engine.PhaseCost

// StrategyCost compares the plan-time cost model against measurement for
// one aggregation strategy.
type StrategyCost = engine.StrategyCost

// ModelPhase compares the calibrated cost model's per-phase prediction
// against the traced measurement (AnalyzeReport.Model, ModelFor).
type ModelPhase = engine.ModelPhase

// CostProfile is the decode-throughput cost model: fitted cycles/row per
// kernel and per aggregation strategy that price a plan's aggregation,
// filter and decode phases (Explain's model costs, ExplainAnalyze's model
// error). It chooses nothing: the aggregation strategy, packed-domain
// filtering and the gather/compact crossover are fixed rules, so a plan is
// the same under every profile. Point Options.CostProfile at one to
// override the process-wide profile for a query; Prepare refuses one that
// fails its Check.
type CostProfile = costmodel.Profile

// CalibrateCostModel measures the hot kernels on this machine and returns
// a fitted profile (~tens of ms of micro-benchmarks). The engine never
// runs it on its own: it prices plans with the checked-in profile, fitted
// the same way offline. Pass the result as Options.CostProfile to price
// plans with a fresh fit.
func CalibrateCostModel() *CostProfile { return costmodel.Calibrate() }

// StaticCostModel returns the paper-derived constant cost profile — the
// pre-calibration prices, the same on every machine, for deterministic
// model costs.
func StaticCostModel() *CostProfile { return costmodel.Static() }

// ActiveCostModel returns the process-wide profile queries use when
// Options.CostProfile is nil: the checked-in one, fitted offline by `make
// calibrate`. It runs no probes.
func ActiveCostModel() *CostProfile { return costmodel.Active() }

// ExplainAnalyze plans, executes, and measures a query: the plan table of
// Explain plus per-phase cycles/row attribution and actual-vs-assumed
// strategy cost. It runs the scan twice (an untraced warmup, then the
// measured pass), so treat it as a diagnostic, not a fast path.
func ExplainAnalyze(t *Table, q *Query, opts Options) (*AnalyzeReport, error) {
	return engine.ExplainAnalyze(t, q, opts)
}

// ScanTrace collects per-phase cycle attribution for one scan; hand one to
// Prepared.RunTraced to trace that execution. The zero of attribution cost:
// a scan without one (Run, or RunTraced with a nil trace) takes the
// untraced path — no clock reads, no allocation, one predictable branch per
// phase boundary.
type ScanTrace = obs.ScanTrace

// PhaseStat is one phase's accumulated nanoseconds, rows, and interval
// count, exposed through ScanStats.Phases and ScanTrace.
type PhaseStat = obs.PhaseStat

// NewScanTrace builds a scan trace capturing up to spanCap per-batch spans
// per scan unit (0 records phase totals only). Dump captured spans with
// ScanTrace.WriteChromeTrace for chrome://tracing or ui.perfetto.dev.
func NewScanTrace(spanCap int) *ScanTrace { return obs.NewScanTrace(spanCap) }

// MetricsRegistry is a process-wide collection of named counters, gauges
// and histograms with a deterministic JSON snapshot; it implements
// http.Handler, so it can be mounted directly at /metrics.
type MetricsRegistry = obs.Registry

// Metrics returns the process-wide registry the engine publishes scan
// metrics into (scans started/finished, rows scanned, batches zone-skipped,
// selectivity and per-strategy cycles/row histograms).
func Metrics() *MetricsRegistry { return obs.Default() }

// TableStats summarizes per-column encoding choices and compression across
// a table's sealed segments (Table.Stats).
type TableStats = table.TableStats

// HavingCond is one HAVING conjunct for Query.Having: aggregate OP value.
type HavingCond = engine.HavingCond

// ScanStats records a scan's runtime decisions (per-batch selection
// methods, per-segment strategies, elimination, measured selectivity);
// every Prepared.RunTraced call returns its own by value.
type ScanStats = engine.ScanStats

// RunNaive executes a query with a classical row-at-a-time hash
// aggregation; it exists as a correctness oracle and speedup baseline.
func RunNaive(t *Table, q *Query) (*Result, error) { return engine.RunNaive(t, q) }

// Expr is a scalar expression over integer columns.
type Expr = expr.Expr

// Pred is a filter predicate.
type Pred = expr.Pred

// Col references a column.
func Col(name string) Expr { return expr.Col(name) }

// Int builds an integer literal.
func Int(v int64) Expr { return expr.Int(v) }

// Add builds l + r.
func Add(l, r Expr) Expr { return expr.Add(l, r) }

// Sub builds l - r.
func Sub(l, r Expr) Expr { return expr.Sub(l, r) }

// Mul builds l * r.
func Mul(l, r Expr) Expr { return expr.Mul(l, r) }

// Div builds l / r with guarded division by zero.
func Div(l, r Expr) Expr { return expr.Div(l, r) }

// Eq builds l = r.
func Eq(l, r Expr) Pred { return expr.Eq(l, r) }

// Ne builds l <> r.
func Ne(l, r Expr) Pred { return expr.Ne(l, r) }

// Lt builds l < r.
func Lt(l, r Expr) Pred { return expr.Lt(l, r) }

// Le builds l <= r.
func Le(l, r Expr) Pred { return expr.Le(l, r) }

// Gt builds l > r.
func Gt(l, r Expr) Pred { return expr.Gt(l, r) }

// Ge builds l >= r.
func Ge(l, r Expr) Pred { return expr.Ge(l, r) }

// And builds l AND r.
func And(l, r Pred) Pred { return expr.AndP(l, r) }

// Or builds l OR r.
func Or(l, r Pred) Pred { return expr.OrP(l, r) }

// Not builds NOT p.
func Not(p Pred) Pred { return expr.NotP(p) }

// StrEq builds col = value for a dictionary-encoded string column; it is
// evaluated directly on encoded dictionary ids, never on strings.
func StrEq(col, value string) Pred { return expr.StrEq(col, value) }

// StrNe builds col <> value for a string column.
func StrNe(col, value string) Pred { return expr.StrNe(col, value) }

// StrIn builds col IN (values...) for a string column.
func StrIn(col string, values ...string) Pred { return expr.StrInSet(col, values...) }

// SelectionMethod identifies a selection strategy for Options.ForceSelection.
type SelectionMethod = sel.Method

// Selection strategies (paper §4).
const (
	SelectionGather       = sel.MethodGather
	SelectionCompact      = sel.MethodCompact
	SelectionSpecialGroup = sel.MethodSpecialGroup
)

// AggregationStrategy identifies an aggregation strategy for
// Options.ForceAggregation.
type AggregationStrategy = agg.Strategy

// Aggregation strategies (paper §5), and the one-group reduction every
// query without GROUP BY plans (forced onto a grouped plan, it degrades to
// scalar).
const (
	AggregationScalar     = agg.StrategyScalar
	AggregationSortBased  = agg.StrategySortBased
	AggregationInRegister = agg.StrategyInRegister
	AggregationMulti      = agg.StrategyMultiAggregate
	AggregationReduce     = agg.StrategyReduce
)

// ForceSelection wraps a selection method for Options.
func ForceSelection(m SelectionMethod) *SelectionMethod { return engine.ForceSel(m) }

// ForceAggregation wraps a strategy for Options.
func ForceAggregation(s AggregationStrategy) *AggregationStrategy { return engine.ForceAgg(s) }
