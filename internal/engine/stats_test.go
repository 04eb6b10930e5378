package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/expr"
	"bipie/internal/obs"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// runTraced is the one-shot Prepare + RunTraced the stats tests share: the
// result, and the statistics that one scan owns. trace may be nil.
func runTraced(t testing.TB, tbl *table.Table, q *Query, opts Options, trace *obs.ScanTrace) (*Result, ScanStats) {
	t.Helper()
	p, err := Prepare(tbl, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := p.RunTraced(context.Background(), trace)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// ScanStats must reflect the scan's actual runtime decisions: selectivity
// drives the per-batch selection choice exactly as the paper's adaptivity
// promises (§3).
func TestScanStatsAdaptivity(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	tbl := buildTable(t, rng, 40000, 8, 10000)
	base := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
	}

	// No filter: every batch processes whole.
	_, st := runTraced(t, tbl, base, Options{Parallelism: 1}, nil)
	if st.SegmentsScanned != 4 || st.SegmentsEliminated != 0 {
		t.Fatalf("segments: %+v", st)
	}
	if st.Batches == 0 || st.NoSelection != st.Batches || st.Gather+st.Compact+st.SpecialGroup != 0 {
		t.Fatalf("no-filter batches: %+v", st)
	}
	if st.RowsSelected != 40000 || st.RowsTotal != 40000 {
		t.Fatalf("rows: %+v", st)
	}
	if len(st.Strategies) == 0 {
		t.Fatalf("strategies empty: %+v", st)
	}

	// Very selective filter (~2%): gather everywhere.
	q := *base
	q.Filter = expr.Lt(expr.Col("d"), expr.Int(2))
	_, st = runTraced(t, tbl, &q, Options{}, nil)
	if st.Gather == 0 || st.SpecialGroup != 0 {
		t.Fatalf("selective filter: %+v", st)
	}
	if frac := st.AvgSelectivity(); frac > 0.05 {
		t.Fatalf("selectivity: %v", frac)
	}
	// d is a 7-bit column, so the pushed conjunct runs the packed kernels
	// on every processed batch, and each batch lands in one histogram
	// bucket — all of them in the lowest decile at ~2% selectivity.
	if st.PackedKernelBatches != st.Batches-st.BatchesSkipped {
		t.Fatalf("packed batches: %+v", st)
	}
	var hist int64
	for _, c := range st.SelectivityHist {
		hist += c
	}
	if hist != st.Batches || st.SelectivityHist[0] != st.Batches {
		t.Fatalf("selectivity histogram: %+v", st)
	}

	// Barely-filtering predicate (~95%): special group everywhere.
	q.Filter = expr.Lt(expr.Col("d"), expr.Int(95))
	_, st = runTraced(t, tbl, &q, Options{}, nil)
	if st.SpecialGroup == 0 || st.Gather != 0 {
		t.Fatalf("high selectivity: %+v", st)
	}

	// Filter rejecting everything in one segment range via elimination.
	q.Filter = expr.Lt(expr.Col("d"), expr.Int(-1))
	_, st = runTraced(t, tbl, &q, Options{}, nil)
	if st.SegmentsEliminated != 4 || st.SegmentsScanned != 0 {
		t.Fatalf("elimination: %+v", st)
	}

	text := st.Format()
	if !strings.Contains(text, "eliminated") {
		t.Fatalf("format:\n%s", text)
	}
}

// Empty batches (filter keeps nothing in some batches) are counted.
func TestScanStatsEmptyBatches(t *testing.T) {
	tbl := mustTable(t, 8192*2, 1<<20, func(i int) (string, int64) {
		return "k", int64(i)
	})
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar()},
		Filter:     expr.Lt(expr.Col("v"), expr.Int(100)), // only rows in the first batch
	}
	_, st := runTraced(t, tbl, q, Options{}, nil)
	if st.EmptyBatches == 0 {
		t.Fatalf("expected empty batches: %+v", st)
	}
	if st.RowsSelected != 100 {
		t.Fatalf("rows: %+v", st)
	}
}

// Zone maps skip provably-empty batches of a clustered bit-packed column
// before any compare kernel runs, and the stats make that observable.
func TestScanStatsZoneSkip(t *testing.T) {
	// Clustered but noisy: batch z holds values [200z, 200z+200). The noise
	// keeps delta/RLE footprints above bit packing, so the column stays
	// bit-packed (9 bits) and the pushdown applies.
	gen := func(i int) (string, int64) {
		return "k", int64(i/4096)*200 + int64(uint32(i)*2654435761%200)
	}
	tbl := mustTable(t, 4*4096, 1<<20, gen)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar()},
		Filter:     expr.Lt(expr.Col("v"), expr.Int(100)), // only batch 0 can match
	}
	got, st := runTraced(t, tbl, q, Options{}, nil)
	if st.Batches != 4 || st.BatchesSkipped != 3 || st.EmptyBatches != 3 {
		t.Fatalf("zone skips: %+v", st)
	}
	if st.PackedKernelBatches != 1 { // only the surviving batch ran a kernel
		t.Fatalf("packed batches: %+v", st)
	}
	if !strings.Contains(st.Format(), "zone-skipped") {
		t.Fatalf("format:\n%s", st.Format())
	}

	// Ablations must not change the result: zone maps and packed kernels
	// are pure evaluation-strategy choices.
	for _, opts := range []Options{
		{DisableZoneMaps: true},
		{DisablePackedFilter: true},
		{DisableZoneMaps: true, DisablePackedFilter: true},
	} {
		ablated, ast := runTraced(t, tbl, q, opts, nil)
		assertSameResult(t, "ablation", ablated, got)
		if opts.DisableZoneMaps && ast.BatchesSkipped != 0 {
			t.Fatalf("zone maps disabled but batches skipped: %+v", ast)
		}
		if opts.DisablePackedFilter && ast.PackedKernelBatches != 0 {
			t.Fatalf("packed kernels disabled but counted: %+v", ast)
		}
	}
}

// A scan that touches no rows must still render: AvgSelectivity reports 0
// instead of 0/0, so Format never prints NaN or Inf.
func TestScanStatsZeroRows(t *testing.T) {
	zero := &ScanStats{}
	if got := zero.AvgSelectivity(); got != 0 {
		t.Fatalf("zero-row AvgSelectivity = %v, want 0", got)
	}
	out := zero.Format()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("zero-row Format leaks non-finite values:\n%s", out)
	}
	if !strings.Contains(out, "rows:     0 of 0 selected (0.0%)") {
		t.Fatalf("zero-row Format lost the rows line:\n%s", out)
	}

	// Same through a real scan of an empty table.
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "v", Type: table.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar()}}
	_, st := runTraced(t, tbl, q, Options{}, nil)
	if st.RowsTotal != 0 {
		t.Fatalf("empty table scanned rows: %+v", st)
	}
	if out := st.Format(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("empty-table Format leaks non-finite values:\n%s", out)
	}
}

// The strategy line renders in name order, not map order: a scan whose
// segments ran two strategies must print the same line every time.
func TestScanStatsFormatStrategyOrder(t *testing.T) {
	st := ScanStats{Strategies: map[string]int{"Scalar": 3, "Multi": 1}}
	const want = "strategy: Multi×1, Scalar×3\n"
	for i := 0; i < 32; i++ {
		if out := st.Format(); !strings.HasSuffix(out, want) {
			t.Fatalf("render %d ends\n%s\nwant it to end\n%s", i, out, want)
		}
	}
}

// The plan settles what a batch selects with beyond its measured
// selectivity, and the per-method counts show it: a sort-based plan gathers
// where another compacts, a method forced onto it runs as forced, and a
// one-group (Reduce) plan, which has no group ids to reserve one in, runs
// its special group — the sum under the mask — wherever another plan would
// compact, chosen or forced.
func TestSelectionSettledByPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	tbl := buildTable(t, rng, 40000, 8, 10000)
	grouped := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
		Filter:     expr.Lt(expr.Col("d"), expr.Int(60)), // ~60 %: compaction's range
	}
	ungrouped := &Query{Aggregates: grouped.Aggregates, Filter: grouped.Filter}
	sortBased := ForceAgg(agg.StrategySortBased)
	for _, c := range []struct {
		name                     string
		q                        *Query
		opts                     Options
		gather, compact, special bool
	}{
		{"chosen", grouped, Options{ForceAggregation: ForceAgg(agg.StrategyScalar)}, false, true, false},
		{"sort-based", grouped, Options{ForceAggregation: sortBased}, true, false, false},
		{"sort-based, compact forced", grouped, Options{ForceAggregation: sortBased, ForceSelection: ForceSel(sel.MethodCompact)}, false, true, false},
		{"sort-based, special forced", grouped, Options{ForceAggregation: sortBased, ForceSelection: ForceSel(sel.MethodSpecialGroup)}, false, false, true},
		{"no special group, special forced", ungrouped, Options{ForceSelection: ForceSel(sel.MethodSpecialGroup)}, false, false, true},
		{"no special group, compact forced", ungrouped, Options{ForceSelection: ForceSel(sel.MethodCompact)}, false, false, true},
		{"no special group, chosen", ungrouped, Options{}, false, false, true},
	} {
		got, st := runTraced(t, tbl, c.q, c.opts, nil)
		if (st.Gather > 0) != c.gather || (st.Compact > 0) != c.compact || (st.SpecialGroup > 0) != c.special ||
			st.Gather+st.Compact+st.SpecialGroup != st.Batches {
			t.Errorf("%s: %d batches: %d gather, %d compact, %d special group", c.name, st.Batches, st.Gather, st.Compact, st.SpecialGroup)
		}
		want, err := RunNaive(tbl, c.q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, c.name, got, want)
	}
}
