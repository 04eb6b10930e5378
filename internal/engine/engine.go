package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"bipie/internal/colstore"
	"bipie/internal/costmodel"
	"bipie/internal/obs"
	"bipie/internal/sel"
	"bipie/internal/table"

	"bipie/internal/agg"
)

// ErrInternal is what a scan returns when one of its units panicked: a
// fault on the decode path (a corrupted segment, a kernel bug) fails that
// scan, not the process. Match it with errors.Is; the error's text carries
// the panic value and the stack it was raised on.
var ErrInternal = errors.New("engine: internal error")

// Options tune a scan. The zero value gives the paper's default behaviour:
// runtime strategy choice and one worker per CPU. Segment elimination has no
// switch: it is the planner's own verdict on the filter, held to RunNaive.
// The Disable* switches select the reference paths tests and ablations
// compare the encoded ones against.
type Options struct {
	// Parallelism caps concurrent segment scans; 0 means GOMAXPROCS. The
	// paper's evaluation always uses all hardware threads (§6).
	Parallelism int
	// ForceSelection pins the per-batch selection method; the benchmark
	// harness uses it to sweep the nine strategy combinations of §6.2.
	ForceSelection *sel.Method
	// ForceAggregation pins the per-segment aggregation strategy.
	ForceAggregation *agg.Strategy
	// DisableZoneMaps turns off batch-granularity zone-map skipping for
	// pushed predicates: every batch runs its compare kernels even when
	// per-batch min/max metadata proves the outcome. For ablation.
	DisableZoneMaps bool
	// DisablePackedFilter forces pushed predicates onto the
	// unpack-then-compare path instead of the packed-domain SWAR kernels.
	// For ablation.
	DisablePackedFilter bool
	// DisableRLEDomain keeps RLE columns out of the run domain: no
	// run-span filter evaluation and no span-path aggregation, filtered or
	// not; such predicates become residual leaves — the column decoded
	// into the 8-byte lane, then the typed compare-to-mask — and an RLE
	// column's SUM decodes its rows like any other. For ablation.
	DisableRLEDomain bool
	// DisableDictDomain keeps string predicates out of the packed
	// dictionary-code kernels: StrIn/StrEq filters become residual
	// leaves — the ids unpacked at their smallest word, then a lookup in
	// the plan's membership table. For ablation.
	DisableDictDomain bool
	// DisableDeltaDomain keeps comparisons on monotonic delta columns off
	// the endpoint-pruning pushdown: they become residual leaves, decoded
	// and compared like a non-monotonic delta column's. For ablation.
	DisableDeltaDomain bool
	// CostProfile overrides the cost model that prices the plan: the
	// aggregation, filter and decode model costs Explain prints and
	// ExplainAnalyze compares against measurement. It chooses nothing —
	// the aggregation strategy, the filter domains and the selection
	// crossover are rules that read no profile — so a plan is the same
	// under every profile and only its prices move. Nil means the
	// process-wide profile from costmodel.Active() — the checked-in profile
	// unless SetActive replaced it. costmodel.Static() gives deterministic
	// prices for tests. Prepare refuses a profile that fails Profile.Check.
	CostProfile *costmodel.Profile
}

// profile resolves the cost model that prices a plan: the explicit
// override, or the process-wide profile.
func (o *Options) profile() *costmodel.Profile {
	if o != nil && o.CostProfile != nil {
		return o.CostProfile
	}
	return costmodel.Active()
}

// ForceSel returns Options-compatible pointer to a selection method.
func ForceSel(m sel.Method) *sel.Method { return &m }

// ForceAgg returns an Options-compatible pointer to a strategy.
func ForceAgg(s agg.Strategy) *agg.Strategy { return &s }

// resolveWorkers turns Options.Parallelism into a concrete worker count:
// positive values pass through, anything else means one worker per CPU,
// floored at one. Every execution path resolves through here so the
// clamping rules cannot drift apart.
func resolveWorkers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// Run executes the query over the table with BIPie's fused scan and
// returns rows sorted by group key. It is the one-shot form of
// Prepare + Prepared.Run: the plan is built, used once, and discarded.
// Callers issuing the same query repeatedly (or concurrently) should
// Prepare once and share the Prepared instead.
func Run(t *table.Table, q *Query, opts Options) (*Result, error) {
	p, err := Prepare(t, q, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background())
}

// Run executes the prepared query and returns rows sorted by group key.
// Rows still in the mutable region are visible too: the scan includes an
// encoded snapshot of them as one extra segment (queries "can involve any
// combination" of both regions, §2).
//
// Run is safe to call from any number of goroutines simultaneously; each
// call borrows pooled exec state from the shared plans and merges its own
// partials. Cancelling ctx stops the scan between batch ranges and returns
// ctx's error.
func (p *Prepared) Run(ctx context.Context) (*Result, error) {
	res, _, err := p.RunTraced(ctx, nil)
	return res, err
}

// RunTraced is the scan driver; Run is its untraced, stats-dropping form.
// It returns the scan's statistics by value, so any number of concurrent
// callers (the serving layer reports rows scanned per request) each see
// exactly their own scan's numbers. Process-wide metrics (obs.Default())
// are always fed. A scan unit that panics fails the scan with ErrInternal
// and counts in engine.scan_errors; the other units and callers go on.
//
// A non-nil trace turns on per-phase cycle attribution: the trace is reset,
// every scan unit gets a tracer, the per-phase totals (and, with
// ScanTrace.SpanCap > 0, per-batch spans; SpanCap 0 keeps the per-unit cost
// to one Tracer allocation) merge into it, and ScanStats.Phases is filled
// from it. The caller owns the trace — the serving layer attaches a pooled
// ScanTrace per request and journals the per-phase breakdown. A nil trace
// keeps the scan on the untraced path: one predictable branch per phase
// boundary, no allocation, no clock reads.
func (p *Prepared) RunTraced(ctx context.Context, trace *obs.ScanTrace) (*Result, ScanStats, error) {
	var stats ScanStats
	metricScansStarted.Inc()
	if trace != nil {
		trace.BeginScan()
	}
	planStart := time.Now()
	segments, _ := p.segments()
	plans := make([]*segPlan, 0, len(segments))
	for _, seg := range segments {
		sp, err := p.planFor(seg)
		if err != nil {
			metricScanErrors.Inc()
			return nil, stats, err
		}
		if sp.eliminated {
			stats.SegmentsEliminated++
			continue
		}
		plans = append(plans, sp)
	}
	p.prune(segments)
	if trace != nil {
		trace.Add(obs.PhasePlan, time.Since(planStart), 0)
	}
	stats.SegmentsScanned = len(plans)
	stats.Strategies = make(map[string]int)

	workers := resolveWorkers(p.opts.Parallelism)

	// Work units are contiguous batch ranges. With more segments than
	// workers each segment is one unit; otherwise large segments split so
	// every worker has work even on a single-segment table (the paper's
	// evaluation always uses every hardware thread, §6). Each unit borrows a
	// pooled exec state, and the key-based merge combines chunk partials of
	// the same segment exactly like partials of different segments.
	type unit struct {
		plan    *segPlan
		batches []colstore.Batch
	}
	var units []unit
	chunksPerSeg := 1
	if len(plans) > 0 && len(plans) < workers {
		chunksPerSeg = (workers + len(plans) - 1) / len(plans)
	}
	for _, sp := range plans {
		batches := sp.seg.Batches()
		nChunks := chunksPerSeg
		if nChunks > len(batches) {
			nChunks = len(batches)
		}
		if nChunks <= 1 {
			units = append(units, unit{plan: sp, batches: batches})
			continue
		}
		per := (len(batches) + nChunks - 1) / nChunks
		for lo := 0; lo < len(batches); lo += per {
			hi := lo + per
			if hi > len(batches) {
				hi = len(batches)
			}
			units = append(units, unit{plan: sp, batches: batches[lo:hi]})
		}
	}

	partials := make([][]Row, len(units))
	execs := make([]*execState, len(units))
	errs := make([]error, len(units))
	unitNanos := make([]int64, len(units))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, u := range units {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, u unit) {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("%w: scan unit %d: panic: %v\n\n%s", ErrInternal, i, r, debug.Stack())
				}
				<-sem
				wg.Done()
			}()
			start := time.Now()
			e := u.plan.getExec()
			execs[i] = e
			if trace != nil {
				e.trace = trace.StartUnit(u.plan.strategy.String())
			}
			if errs[i] = e.scanBatches(ctx, u.batches); errs[i] == nil {
				t0 := e.traceStart()
				partials[i] = e.finalize()
				e.traceEnd(obs.PhaseMerge, t0, 0)
			}
			unitNanos[i] = int64(time.Since(start))
		}(i, u)
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	for i, e := range execs {
		if e == nil { // the unit panicked before it had a state
			continue
		}
		if firstErr == nil {
			stats.add(&e.stats)
			stats.Strategies[units[i].plan.strategy.String()]++
			recordUnitMetrics(units[i].plan.strategy, unitNanos[i], e.stats.RowsTotal)
		}
		if e.trace != nil {
			trace.EndUnit(e.trace, unitNanos[i], e.stats.RowsTotal)
		}
		// A unit that panicked may have left its buffers half written: its
		// state is dropped, not pooled.
		if !errors.Is(errs[i], ErrInternal) {
			e.release() // resets the state, detaching the tracer
		}
	}
	if firstErr != nil {
		metricScanErrors.Inc()
		return nil, stats, firstErr
	}
	mergeStart := time.Now()
	res := mergePartials(p.q, partials)
	if trace != nil {
		trace.Add(obs.PhaseMerge, time.Since(mergeStart), 0)
		stats.Phases = trace.PhaseSlice()
	}
	recordScanMetrics(&stats)
	return res, stats, nil
}

// groupKey encodes a group-key tuple into one merge-map key. Each part is
// prefixed with its uvarint length, making the encoding injective for
// arbitrary byte content — joining on a separator byte would conflate
// ("a\x00b") with ("a", "b") whenever dictionary values contain the
// separator.
func groupKey(keys []string) string {
	size := 0
	for _, k := range keys {
		size += len(k) + binary.MaxVarintLen64
	}
	buf := make([]byte, 0, size)
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	return string(buf)
}

// mergePartials combines per-segment rows by group key. Group ids are
// segment-local (each segment has its own dictionaries), so the merge keys
// on the decoded group values — the cross-segment analogue of the paper's
// result output step. Counts and sums add; extrema combine with min/max.
func mergePartials(q *Query, partials [][]Row) *Result {
	merged := make(map[string]*Row)
	var order []string
	for _, rows := range partials {
		for i := range rows {
			r := &rows[i]
			key := groupKey(r.Keys)
			m, ok := merged[key]
			if !ok {
				cp := Row{Keys: r.Keys, Stats: make([]Stat, len(r.Stats))}
				copy(cp.Stats, r.Stats)
				merged[key] = &cp
				order = append(order, key)
				continue
			}
			for ai := range r.Stats {
				m.Stats[ai].Count += r.Stats[ai].Count
				switch q.Aggregates[ai].Kind {
				case Min:
					if r.Stats[ai].Sum < m.Stats[ai].Sum {
						m.Stats[ai].Sum = r.Stats[ai].Sum
					}
				case Max:
					if r.Stats[ai].Sum > m.Stats[ai].Sum {
						m.Stats[ai].Sum = r.Stats[ai].Sum
					}
				default:
					m.Stats[ai].Sum += r.Stats[ai].Sum
				}
			}
		}
	}
	res := &Result{
		GroupCols: append([]string(nil), q.GroupBy...),
		AggNames:  q.aggNames(),
		AggKinds:  q.aggKinds(),
	}
	for _, key := range order {
		res.Rows = append(res.Rows, *merged[key])
	}
	res.Rows = finishRows(q, res.Rows)
	return res
}

// Format renders the result as an aligned text table for examples and the
// demo tool.
func (r *Result) Format() string {
	var b strings.Builder
	header := append(append([]string(nil), r.GroupCols...), r.AggNames...)
	widths := make([]int, len(header))
	rows := make([][]string, 0, len(r.Rows)+1)
	rows = append(rows, header)
	for _, row := range r.Rows {
		cells := append([]string(nil), row.Keys...)
		for i, st := range row.Stats {
			kind := Sum
			if i < len(r.AggKinds) {
				kind = r.AggKinds[i]
			}
			switch {
			case kind == Avg && st.Count != 0:
				cells = append(cells, fmt.Sprintf("%.4f", float64(st.Sum)/float64(st.Count)))
			case kind == Count:
				cells = append(cells, fmt.Sprintf("%d", st.Count))
			default:
				cells = append(cells, fmt.Sprintf("%d", st.Sum))
			}
		}
		rows = append(rows, cells)
	}
	for _, cells := range rows {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, cells := range rows {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
