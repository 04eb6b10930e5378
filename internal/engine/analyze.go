package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bipie/internal/obs"
	"bipie/internal/perfstat"
	"bipie/internal/table"
)

// analyzeSpanCap bounds per-unit span capture during ExplainAnalyze: 4096
// spans cover ~600 batches of per-phase detail per unit before the tracer
// starts dropping, enough for a Chrome trace of any realistic segment
// without unbounded memory.
const analyzeSpanCap = 4096

// PhaseCost is one phase's share of a measured scan.
type PhaseCost struct {
	Phase string
	// Nanos is total wall time in the phase; Rows the rows the phase
	// touched; Calls the number of timed intervals.
	Nanos int64
	Rows  int64
	Calls int64
	// CyclesPerRow is the phase cost normalized by the scan's total rows
	// (not the phase's own), so the column sums to the scan's traced
	// cycles/row.
	CyclesPerRow float64
}

// StrategyCost compares the plan-time cost model against measurement for
// one aggregation strategy.
type StrategyCost struct {
	Strategy string
	// Units and Rows are the scan units that ran this strategy and the
	// rows they scanned.
	Units int
	Rows  int64
	// AssumedCyclesPerRow is the cost model's estimate
	// (agg.EstimateCost), weighted across this strategy's segments by row
	// count. The model prices aggregation work per aggregated row.
	AssumedCyclesPerRow float64
	// MeasuredCyclesPerRow is the measured aggregate-phase cost per row
	// the aggregation kernels actually processed.
	MeasuredCyclesPerRow float64
}

// ModelPhase compares the calibrated cost model's prediction against
// measurement for one phase, in the phase's own per-row unit (cycles per
// phase-touched row — for the encoded filter, a row evaluated by one
// conjunct; for decode, a batch row in one decode pass; for aggregation, a
// row processed by the strategy kernels).
type ModelPhase struct {
	Phase string
	// PredictedCyclesPerRow is the model's plan-time prediction, weighted
	// across segments by row count.
	PredictedCyclesPerRow float64
	// MeasuredCyclesPerRow is the traced phase cost per phase-touched row.
	MeasuredCyclesPerRow float64
	// Rows is the phase-touched row count backing the measurement.
	Rows int64
}

// Err is the relative model error |predicted-measured| / measured, the
// quantity TestModelErrorBound bounds.
func (m ModelPhase) Err() float64 {
	if m.MeasuredCyclesPerRow <= 0 {
		return 0
	}
	return abs(m.PredictedCyclesPerRow-m.MeasuredCyclesPerRow) / m.MeasuredCyclesPerRow
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// AnalyzeReport is Explain plus measurement: the per-segment plans, the
// query result, and where the cycles actually went.
type AnalyzeReport struct {
	Plans  []SegmentPlan
	Result *Result
	Stats  ScanStats
	// Wall is the end-to-end scan duration; UnitNanos sums the scan
	// units' on-core time (equal to Wall minus driver overhead on one
	// worker, larger than Wall under parallelism).
	Wall       time.Duration
	UnitNanos  int64
	Rows       int64 // rows scanned (Stats.RowsTotal)
	Hz         float64
	Phases     []PhaseCost
	Strategies []StrategyCost
	// Model compares the cost model's per-phase predictions against the
	// traced measurements; phases the scan never entered are absent.
	Model []ModelPhase
	// Trace retains the full trace, spans included, for WriteChromeTrace.
	Trace *obs.ScanTrace
}

// ExplainAnalyze plans, executes, and measures the query in one shot: the
// per-segment plans of Explain plus measured per-phase cycles/row and
// actual-vs-assumed strategy cost. One-shot form of Prepare +
// Prepared.ExplainAnalyze.
func ExplainAnalyze(t *table.Table, q *Query, opts Options) (*AnalyzeReport, error) {
	p, err := Prepare(t, q, opts)
	if err != nil {
		return nil, err
	}
	return p.ExplainAnalyze(context.Background())
}

// ExplainAnalyze executes the prepared query once with tracing enabled and
// reports the measured cost breakdown. Like every execution it owns its
// trace and its stats, so it is safe alongside concurrent Runs.
func (p *Prepared) ExplainAnalyze(ctx context.Context) (*AnalyzeReport, error) {
	plans, err := p.Explain()
	if err != nil {
		return nil, err
	}
	// Warm up with one untraced pass so the measured run sees steady
	// state — pooled exec buffers built and pages faulted in — the same
	// regime the benchmarks report. The diagnostic costs one extra scan.
	if _, err := p.Run(ctx); err != nil {
		return nil, err
	}
	trace := obs.NewScanTrace(analyzeSpanCap)
	start := time.Now()
	res, stats, err := p.RunTraced(ctx, trace)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	rep := &AnalyzeReport{
		Plans:     plans,
		Result:    res,
		Stats:     stats,
		Wall:      wall,
		UnitNanos: trace.UnitNanos(),
		Rows:      stats.RowsTotal,
		Hz:        perfstat.Hz(),
		Trace:     trace,
	}
	for p, ps := range trace.Phases() {
		rep.Phases = append(rep.Phases, PhaseCost{
			Phase:        obs.Phase(p).String(),
			Nanos:        ps.Nanos,
			Rows:         ps.Rows,
			Calls:        ps.Calls,
			CyclesPerRow: perfstat.CyclesPerRow(time.Duration(ps.Nanos), int(stats.RowsTotal)),
		})
	}

	// Assumed cost per strategy: the plan-time model estimate, weighted
	// across the strategy's segments by row count.
	modelNum := map[string]float64{}
	modelDen := map[string]float64{}
	for _, pl := range rep.Plans {
		if pl.Eliminated {
			continue
		}
		modelNum[pl.Strategy] += pl.ModelCyclesPerRow * float64(pl.Rows)
		modelDen[pl.Strategy] += float64(pl.Rows)
	}
	// Both sides per row the strategy's kernels processed; the phase-wide
	// aggregate model weights them by those rows, so its measured figure
	// times its Rows is the phase's total.
	var aPred, aMeas float64
	var aRows int64
	for _, g := range trace.Groups() {
		ps := g.Phases[obs.PhaseAggregate]
		sc := StrategyCost{
			Strategy:             g.Label,
			Units:                g.Units,
			Rows:                 g.Rows,
			MeasuredCyclesPerRow: ps.CyclesPerRow(),
		}
		if d := modelDen[g.Label]; d > 0 {
			sc.AssumedCyclesPerRow = modelNum[g.Label] / d
		}
		rep.Strategies = append(rep.Strategies, sc)
		aPred += sc.AssumedCyclesPerRow * float64(ps.Rows)
		aMeas += sc.MeasuredCyclesPerRow * float64(ps.Rows)
		aRows += ps.Rows
	}

	// Model error per phase: the calibrated prediction against the traced
	// measurement, each in cycles per phase-touched row. The encoded-filter
	// prediction weights each segment's per-conjunct figure by rows; when
	// zone maps collapsed every conjunct (the phase never ran) there is no
	// measurement to compare and the phase is absent.
	ph := trace.Phases()
	planModel := func(phase obs.Phase, figure func(SegmentPlan) float64) {
		pred, ok := rowWeighted(rep.Plans, figure)
		if ps := ph[phase]; ok && ps.Rows > 0 {
			rep.Model = append(rep.Model, ModelPhase{
				Phase:                 phase.String(),
				PredictedCyclesPerRow: pred,
				MeasuredCyclesPerRow:  ps.CyclesPerRow(),
				Rows:                  ps.Rows,
			})
		}
	}
	planModel(obs.PhaseEncodedFilter, func(pl SegmentPlan) float64 { return pl.FilterModelCyclesPerRow })
	// The decode prediction prices a batch whose values load in full; one
	// that gathered or compacted loaded fewer rows than the phase counts, so
	// a scan with such batches has no comparable measurement.
	if stats.Gather+stats.Compact == 0 {
		planModel(obs.PhaseDecode, func(pl SegmentPlan) float64 { return pl.DecodeModelCyclesPerRow })
	}
	if aRows > 0 && aMeas > 0 {
		rep.Model = append(rep.Model, ModelPhase{
			Phase:                 obs.PhaseAggregate.String(),
			PredictedCyclesPerRow: aPred / float64(aRows),
			MeasuredCyclesPerRow:  aMeas / float64(aRows),
			Rows:                  aRows,
		})
	}
	return rep, nil
}

// rowWeighted averages a per-plan model figure over the plans that carry
// one (eliminated segments and zero figures excluded), weighted by rows.
func rowWeighted(plans []SegmentPlan, figure func(SegmentPlan) float64) (float64, bool) {
	var num, den float64
	for _, pl := range plans {
		if v := figure(pl); !pl.Eliminated && v > 0 {
			num += v * float64(pl.Rows)
			den += float64(pl.Rows)
		}
	}
	return num / den, den > 0
}

// ModelFor returns the model-vs-measured comparison for a phase name and
// whether that phase produced one.
func (r *AnalyzeReport) ModelFor(phase string) (ModelPhase, bool) {
	for _, m := range r.Model {
		if m.Phase == phase {
			return m, true
		}
	}
	return ModelPhase{}, false
}

// TracedCyclesPerRow sums the per-phase attribution: the cycles/row the
// tracer accounted for.
func (r *AnalyzeReport) TracedCyclesPerRow() float64 {
	total := 0.0
	for _, pc := range r.Phases {
		total += pc.CyclesPerRow
	}
	return total
}

// MeasuredCyclesPerRow is the scan's end-to-end cost: unit on-core time
// plus driver-side phases, over scanned rows. On a single worker this
// tracks the wall-clock cycles/row the benchmarks report; under
// parallelism it reports summed core time rather than elapsed time.
func (r *AnalyzeReport) MeasuredCyclesPerRow() float64 {
	nanos := r.UnitNanos
	for _, pc := range r.Phases {
		if pc.Phase == obs.PhasePlan.String() {
			nanos += pc.Nanos
		}
	}
	// The merge phase mixes per-unit finalize (already inside UnitNanos)
	// with the driver's cross-unit partial merge (not). Subtracting the
	// unit-recorded merge time from the phase total leaves the
	// driver-side remainder to add.
	ph := r.Trace.Phases()
	mergeDriver := ph[obs.PhaseMerge].Nanos
	for _, g := range r.Trace.Groups() {
		mergeDriver -= g.Phases[obs.PhaseMerge].Nanos
	}
	if mergeDriver > 0 {
		nanos += mergeDriver
	}
	return perfstat.CyclesPerRow(time.Duration(nanos), int(r.Rows))
}

// Coverage is traced over measured cycles/row: how much of the scan's
// on-core time the phase attribution explains. The remainder is untimed
// driver glue — batch-loop overhead, pool churn, selection-method choice.
func (r *AnalyzeReport) Coverage() float64 {
	m := r.MeasuredCyclesPerRow()
	if m <= 0 {
		return 0
	}
	return r.TracedCyclesPerRow() / m
}

// Format renders the report: plan table, phase breakdown in cycles/row,
// and assumed-vs-measured strategy cost.
func (r *AnalyzeReport) Format() string {
	var b strings.Builder
	b.WriteString(FormatPlans(r.Plans))
	fmt.Fprintf(&b, "\nrows:     %d scanned, %d selected (%.1f%%)\n",
		r.Stats.RowsTotal, r.Stats.RowsSelected, 100*r.Stats.AvgSelectivity())
	fmt.Fprintf(&b, "wall:     %v over %d unit(s) — %.2f cycles/row at %.2f GHz\n",
		r.Wall.Round(time.Microsecond), r.Trace.Units(), r.MeasuredCyclesPerRow(), r.Hz/1e9)
	b.WriteString("phases (cycles/row over scanned rows):\n")
	for _, pc := range r.Phases {
		if pc.Calls == 0 {
			continue
		}
		share := 0.0
		if m := r.MeasuredCyclesPerRow(); m > 0 {
			share = 100 * pc.CyclesPerRow / m
		}
		fmt.Fprintf(&b, "  %-14s %8.3f  %5.1f%%  (%d calls)\n", pc.Phase, pc.CyclesPerRow, share, pc.Calls)
	}
	fmt.Fprintf(&b, "  %-14s %8.3f  %5.1f%% of measured\n", "traced total", r.TracedCyclesPerRow(), 100*r.Coverage())
	if len(r.Strategies) > 0 {
		b.WriteString("strategies (aggregate phase, cycles/row):\n")
		for _, sc := range r.Strategies {
			fmt.Fprintf(&b, "  %-10s assumed %6.2f  measured %6.2f  over %d rows in %d unit(s)\n",
				sc.Strategy, sc.AssumedCyclesPerRow, sc.MeasuredCyclesPerRow, sc.Rows, sc.Units)
		}
	}
	if len(r.Model) > 0 {
		b.WriteString("model (cycles per phase-touched row):\n")
		for _, m := range r.Model {
			fmt.Fprintf(&b, "  %-14s predicted %6.2f  measured %6.2f  error %5.1f%%\n",
				m.Phase, m.PredictedCyclesPerRow, m.MeasuredCyclesPerRow, 100*m.Err())
		}
	}
	fmt.Fprintf(&b, "spans:    %d captured, %d dropped\n", len(r.Trace.Spans()), r.Trace.Dropped())
	return b.String()
}
