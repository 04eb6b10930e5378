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
	"sync/atomic"
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
	// Parallelism caps a scan's worker goroutines, which pull morsels of
	// batches from every live segment until none are left; 0 means
	// GOMAXPROCS. The paper's evaluation always uses all hardware threads
	// (§6).
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
// partials. Cancelling ctx stops the scan between batches and returns
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

	// The scan is morsel-driven: every live segment has a batch cursor, and
	// worker w starts on segment w mod S, claims morselBatches batches at a
	// time from it and, once it runs dry, takes morsels from the segments
	// after it until none are left. So every worker decodes until the scan's
	// last morsel, whichever of them the machine runs slower (the paper's
	// evaluation always uses every hardware thread, §6). A worker holds one
	// pooled exec state, a scan unit, per segment it touched and finalizes it
	// as it leaves that segment; the key-based merge folds two partials of
	// one segment exactly like partials of different segments.
	m := &morselScan{ctx: ctx, trace: trace, plans: plans, batches: make([][]colstore.Batch, len(plans))}
	morsels := 0
	for i, sp := range plans {
		m.batches[i] = sp.seg.Batches()
		morsels += (len(m.batches[i]) + morselBatches - 1) / morselBatches
	}
	m.cursors = make([]atomic.Int64, len(plans))
	workers := min(resolveWorkers(p.opts.Parallelism), morsels)
	units := make([]scanUnit, workers*len(plans)) // worker w's unit on segment s is units[w*S+s]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.work(w, units[w*len(plans):(w+1)*len(plans)])
		}(w)
	}
	wg.Wait()

	var firstErr error
	for i := range units {
		if firstErr = units[i].err; firstErr != nil {
			break
		}
	}
	partials := make([][]Row, 0, len(units))
	for i := range units {
		u := &units[i]
		e := u.exec
		if e == nil { // the worker never touched this segment, or panicked before it had a state
			continue
		}
		if firstErr == nil {
			stats.add(&e.stats)
			stats.Strategies[e.plan.strategy.String()]++
			recordUnitMetrics(e.plan.strategy, u.nanos, e.stats.RowsTotal)
			partials = append(partials, u.rows)
		}
		if e.trace != nil {
			trace.EndUnit(e.trace, u.nanos, e.stats.RowsTotal)
		}
		// A unit that panicked may have left its buffers half written: its
		// state is dropped, not pooled.
		if !errors.Is(u.err, ErrInternal) {
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

// morselBatches is how many batches a worker claims from a segment's
// cursor at once: 16,384 rows, so one claim's atomic add is noise beside the
// scan it buys, and the last claims still even out the workers' finishing
// times. Sixteen-batch morsels left part of the static split's wait; eight
// measured the same as four.
const morselBatches = 4

// morselScan is the state one scan's workers share: the live segments'
// plans and batches, a batch cursor per segment, and the flag the first
// error or panic raises so the others stop claiming.
type morselScan struct {
	ctx     context.Context
	trace   *obs.ScanTrace
	plans   []*segPlan
	batches [][]colstore.Batch
	cursors []atomic.Int64
	stop    atomic.Bool
}

// scanUnit is what one exec state did in a scan: the worker's state on one
// segment, the partial it finalized, its scan plus finalize wall time and
// the error that ended it.
type scanUnit struct {
	exec  *execState
	rows  []Row
	nanos int64
	err   error
}

// work is worker w's whole scan: its own segment first, then every other
// segment in turn, one unit each (units is indexed by segment). A panic
// fails the unit it hit with ErrInternal and stops the scan.
func (m *morselScan) work(w int, units []scanUnit) {
	si := w % len(m.plans)
	defer func() {
		if r := recover(); r != nil {
			m.stop.Store(true)
			units[si].err = fmt.Errorf("%w: scan worker %d, segment %d: panic: %v\n\n%s", ErrInternal, w, si, r, debug.Stack())
		}
	}()
	for k := 0; k < len(m.plans) && !m.stop.Load(); k++ {
		si = (w + k) % len(m.plans)
		m.drain(si, &units[si])
	}
}

// drain scans morsels of segment si into u until the segment's cursor runs
// dry or the scan stops, then finalizes u's partial. The exec state is
// borrowed at the first morsel claimed, so a segment the other workers
// emptied costs this one nothing. u's clock starts once the state and its
// tracer are in hand: a unit's nanos are its scan plus its finalize.
func (m *morselScan) drain(si int, u *scanUnit) {
	sp, batches, cursor := m.plans[si], m.batches[si], &m.cursors[si]
	var start time.Time
	for !m.stop.Load() {
		lo := int(cursor.Add(morselBatches)) - morselBatches
		if lo >= len(batches) {
			break
		}
		if u.exec == nil {
			u.exec = sp.getExec()
			if m.trace != nil {
				u.exec.trace = m.trace.StartUnit(sp.strategy.String())
			}
			start = time.Now()
		}
		if u.err = u.exec.scanBatches(m.ctx, batches[lo:min(lo+morselBatches, len(batches))]); u.err != nil {
			m.stop.Store(true)
			break
		}
	}
	if u.exec == nil {
		return
	}
	if u.err == nil {
		t0 := u.exec.traceStart()
		u.rows = u.exec.finalize()
		u.exec.traceEnd(obs.PhaseMerge, t0, 0)
	}
	u.nanos = int64(time.Since(start))
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
