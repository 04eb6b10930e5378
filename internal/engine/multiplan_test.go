package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"bipie/internal/agg"
	"bipie/internal/expr"
	"bipie/internal/obs"
	"bipie/internal/perfstat"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// A multi-aggregate plan runs no COUNT pass: its counts come out of the
// accumulator row's carrier. They must equal the oracle's under every
// selection method, on a table whose first batch the residual filter
// rejects whole (a + d reaches 150 only where d is not zero).
func TestMultiPlanCountsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(190))
	const n = 20000
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "a", Type: table.Int64},
		{Name: "b", Type: table.Int64},
		{Name: "c", Type: table.Int64},
		{Name: "d", Type: table.Int64},
	}, table.WithSegmentRows(10000))
	if err != nil {
		t.Fatal(err)
	}
	ints := map[string][]int64{"a": make([]int64, n), "b": make([]int64, n), "c": make([]int64, n), "d": make([]int64, n)}
	strs := map[string][]string{"g": make([]string, n)}
	for i := 0; i < n; i++ {
		strs["g"][i] = fmt.Sprintf("k%02d", rng.Intn(4))
		ints["a"][i] = rng.Int63n(100)
		ints["b"][i] = rng.Int63n(1 << 14)
		ints["c"][i] = rng.Int63n(1<<30) - (1 << 29)
		if i >= 5000 {
			ints["d"][i] = rng.Int63n(100)
		}
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()

	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a")), AvgOf(expr.Col("b")), SumOf(expr.Col("c"))},
		Filter:     expr.Ge(expr.Add(expr.Col("a"), expr.Col("d")), expr.Int(150)),
	}
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("the filter selects nothing: the test table is wrong")
	}
	for _, opts := range []Options{
		{},
		{ForceAggregation: ForceAgg(agg.StrategyMultiAggregate), ForceSelection: ForceSel(sel.MethodSpecialGroup)},
		{ForceAggregation: ForceAgg(agg.StrategyMultiAggregate), ForceSelection: ForceSel(sel.MethodGather)},
		{ForceAggregation: ForceAgg(agg.StrategyMultiAggregate), ForceSelection: ForceSel(sel.MethodCompact)},
	} {
		label := "sel=" + fmtPtr(opts.ForceSelection)
		plans, err := Explain(tbl, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range plans {
			if pl.Strategy != "Multi" {
				t.Fatalf("%s: segment %d planned %s, want Multi", label, pl.Segment, pl.Strategy)
			}
		}
		got, stats := runTraced(t, tbl, q, opts, nil)
		assertSameResult(t, label, got, want)
		if stats.RowsSelected >= stats.RowsTotal || stats.Batches < 4 {
			t.Fatalf("%s: stats %+v: the scan did not filter", label, stats)
		}
	}

	// Nothing selected anywhere: no group has a count, so no row comes out.
	q.Filter = expr.Ge(expr.Add(expr.Col("a"), expr.Col("d")), expr.Int(1000))
	got, err := Run(tbl, q, Options{ForceAggregation: ForceAgg(agg.StrategyMultiAggregate)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 {
		t.Fatalf("all-filtered scan returned %d groups", len(got.Rows))
	}
}

// A batch's rows are credited to the aggregate phase once, however many
// timed intervals the phase has per batch: the model's measured cycles/row
// times its rows is then the phase's whole time, and the rows never exceed
// what the scan selected or scanned.
func TestAggregatePhaseCountsRowsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	tbl := buildTable(t, rng, 40000, 4, 10000)
	for _, st := range []agg.Strategy{agg.StrategyScalar, agg.StrategySortBased, agg.StrategyMultiAggregate} {
		rep, err := ExplainAnalyze(tbl, analyzeQuery(), Options{Parallelism: 1, ForceAggregation: ForceAgg(st)})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Plans[0].Strategy; got != st.String() {
			t.Fatalf("forced %v, planned %s", st, got)
		}
		m, ok := rep.ModelFor(obs.PhaseAggregate.String())
		if !ok {
			t.Fatalf("%v: no aggregate model comparison", st)
		}
		ps := rep.Trace.Phases()[obs.PhaseAggregate]
		if m.Rows != ps.Rows || ps.Rows < rep.Stats.RowsSelected || ps.Rows > rep.Stats.RowsTotal {
			t.Errorf("%v: model rows %d, phase rows %d, scan selected %d of %d",
				st, m.Rows, ps.Rows, rep.Stats.RowsSelected, rep.Stats.RowsTotal)
		}
		total := perfstat.CyclesPerRow(time.Duration(ps.Nanos), 1)
		if got := m.MeasuredCyclesPerRow * float64(m.Rows); math.Abs(got-total) > 1e-6*total {
			t.Errorf("%v: measured %.3f cycles/row × %d rows = %.0f cycles, the phase took %.0f",
				st, m.MeasuredCyclesPerRow, m.Rows, got, total)
		}
		for _, sc := range rep.Strategies {
			if math.Abs(sc.MeasuredCyclesPerRow-m.MeasuredCyclesPerRow) > 1e-9*m.MeasuredCyclesPerRow {
				t.Errorf("%v: strategy line says %.4f cycles/row, the model %.4f", st, sc.MeasuredCyclesPerRow, m.MeasuredCyclesPerRow)
			}
		}
	}
}
