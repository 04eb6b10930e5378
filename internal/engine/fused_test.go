package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/colstore"
	"bipie/internal/expr"
	"bipie/internal/obs"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// TestFusedFilterMatchesThreePass runs a Q1-shaped query — a packed <= on a
// 12-bit date, grouped by a 3-value and a 2-value dictionary column — with
// the fused filter pass (unforced) and with ForceSelection = SpecialGroup,
// which keeps the three passes the fused one replaces. The table's batches
// keep from 2 % of their rows to all of them, so the fused output also
// feeds gather and compaction; the first segment has a batch the zone map
// keeps whole, three batches of the second hold deleted rows, and the third
// ends in a partial batch. Both runs, and the unforced run under every aggregation strategy,
// must equal RunNaive; the two scans' selectivity histograms, packed-kernel
// batches and zone skips must be identical; and the group-map phase must
// run for exactly the batches that take the fallback — the zone-kept one,
// the three batches holding a deleted row and the partial batch; the
// segment's fourth batch, which holds none, keeps the fused pass. The same
// query under >=, = and <> plans no fused pass.
func TestFusedFilterMatchesThreePass(t *testing.T) {
	const segRows = 4 * colstore.BatchRows
	const threshold = 3000
	rng := rand.New(rand.NewSource(29))
	n := 2*segRows + 1500
	ints := map[string][]int64{"date": make([]int64, n), "qty": make([]int64, n), "price": make([]int64, n)}
	strs := map[string][]string{"flag": make([]string, n), "status": make([]string, n)}
	for i := 0; i < n; i++ {
		// Batches 1–3 keep all their rows (the zone map proves it), ~50 % and
		// ~2 %; every other batch ~73 %.
		kept := map[int]float64{1: 1, 2: 0.5, 3: 0.02}[i/colstore.BatchRows]
		date := rng.Int63n(1 << 12)
		if kept > 0 {
			date = rng.Int63n(threshold + 1)
			if rng.Float64() >= kept {
				date = threshold + 1 + rng.Int63n(1<<12-threshold-1)
			}
		}
		ints["date"][i] = date
		ints["qty"][i] = 1 + rng.Int63n(50)
		ints["price"][i] = 90000 + rng.Int63n(1<<20)
		strs["flag"][i] = []string{"A", "N", "R"}[rng.Intn(3)]
		strs["status"][i] = []string{"F", "O"}[rng.Intn(2)]
	}
	for s := 0; s*segRows < n; s++ { // every segment spans the 12-bit domain
		ints["date"][s*segRows], ints["date"][s*segRows+1] = 0, 1<<12-1
	}
	tbl, err := table.New(table.Schema{
		{Name: "flag", Type: table.String}, {Name: "status", Type: table.String},
		{Name: "date", Type: table.Int64}, {Name: "qty", Type: table.Int64}, {Name: "price", Type: table.Int64},
	}, table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	for _, row := range []int{segRows + 10, segRows + 5000, 2*segRows - 1} {
		if err := tbl.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{
		GroupBy:    []string{"flag", "status"},
		Aggregates: []Aggregate{SumOf(expr.Col("qty")), SumOf(expr.Col("price")), AvgOf(expr.Col("qty")), CountStar()},
		Filter:     expr.Le(expr.Col("date"), expr.Int(threshold)),
	}
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}

	run := func(opts Options) (*Prepared, *Result, ScanStats, *obs.ScanTrace) {
		t.Helper()
		p, err := Prepare(tbl, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		trace := obs.NewScanTrace(0)
		res, stats, err := p.RunTraced(context.Background(), trace)
		if err != nil {
			t.Fatal(err)
		}
		return p, res, stats, trace
	}
	p, fused, fusedStats, trace := run(Options{})
	_, three, threeStats, _ := run(Options{ForceSelection: ForceSel(sel.MethodSpecialGroup)})
	assertSameResult(t, "fused", fused, want)
	assertSameResult(t, "three-pass", three, want)
	for _, s := range []agg.Strategy{agg.StrategyScalar, agg.StrategyInRegister, agg.StrategySortBased, agg.StrategyMultiAggregate} {
		_, res, _, _ := run(Options{ForceAggregation: ForceAgg(s)})
		assertSameResult(t, fmt.Sprintf("fused under %v", s), res, want)
	}

	segments, _ := p.segments()
	for i, seg := range segments {
		if sp, err := p.planFor(seg); err != nil || sp.fused == nil {
			t.Fatalf("segment %d: no fused pass planned (%v)", i, err)
		}
	}
	if fusedStats.SelectivityHist != threeStats.SelectivityHist || fusedStats.PackedKernelBatches != threeStats.PackedKernelBatches ||
		fusedStats.BatchesSkipped != threeStats.BatchesSkipped {
		t.Errorf("scan stats differ: fused %+v, three-pass %+v", fusedStats, threeStats)
	}
	if fusedStats.Gather == 0 || fusedStats.Compact == 0 || fusedStats.SpecialGroup == 0 || fusedStats.NoSelection == 0 {
		t.Errorf("the batches did not take every selection method: %+v", fusedStats)
	}
	if calls := trace.Phases()[obs.PhaseGroupMap].Calls; calls != 2+3 {
		t.Errorf("group-map phase ran %d times, want the zone-kept batch, the 3 batches with deletes and the partial one", calls)
	}

	// The pass compares <= only: the same shape under any other operator
	// plans the three passes.
	for _, filter := range []expr.Pred{
		expr.Ge(expr.Col("date"), expr.Int(threshold)), expr.Eq(expr.Col("date"), expr.Int(threshold)),
		expr.Ne(expr.Col("date"), expr.Int(threshold)),
	} {
		q.Filter = filter
		if want, err = RunNaive(tbl, q); err != nil {
			t.Fatal(err)
		}
		p, res, _, _ := run(Options{})
		assertSameResult(t, fmt.Sprint(filter), res, want)
		for i, seg := range segments {
			if sp, err := p.planFor(seg); err != nil || sp.fused != nil {
				t.Fatalf("%v: segment %d plans the fused pass (%v)", filter, i, err)
			}
		}
	}
}
