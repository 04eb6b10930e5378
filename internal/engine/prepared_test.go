package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/table"
)

// TestPreparedConcurrentTorture is the race-and-cross-talk test of the
// plan/exec split: many goroutines share one Prepared and must each get the
// oracle result, with no state leaking between pooled exec states. Run it
// under -race to catch sharing bugs in the plan layer.
func TestPreparedConcurrentTorture(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4000 + seed))
			tbl := tortureTable(t, rng)
			for qi := 0; qi < 4; qi++ {
				q := tortureQuery(rng, qi)
				want, err := RunNaive(tbl, q)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Prepare(tbl, q, Options{})
				if err != nil {
					t.Fatal(err)
				}

				const goroutines = 8
				const runsEach = 4
				results := make([][]*Result, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for r := 0; r < runsEach; r++ {
							res, err := p.Run(context.Background())
							if err != nil {
								errs[g] = err
								return
							}
							results[g] = append(results[g], res)
						}
					}(g)
				}
				wg.Wait()
				for g, err := range errs {
					if err != nil {
						t.Fatalf("q%d goroutine %d: %v", qi, g, err)
					}
				}
				for g := range results {
					for r, res := range results[g] {
						assertSameResult(t, fmt.Sprintf("q%d goroutine %d run %d", qi, g, r), res, want)
					}
				}
			}
		})
	}
}

// TestPreparedZeroAllocSteadyState pins the contract the exec-state pool
// exists for: once an exec state is warm, scanning batches performs zero
// heap allocations, for the unfiltered fast path, the selection-heavy path,
// a multi-aggregate cell walk that computes Q1-shaped products itself and the
// one-group reduction, whose gathered batches compact positions alone.
// (Result assembly — finalize and the merge — is per-scan, not per-batch,
// and allocates by design.)
func TestPreparedZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	tbl := buildTable(t, rng, 20000, 4, 6000)
	dc := expr.Mul(expr.Col("c"), expr.Sub(expr.Int(100), expr.Col("d")))
	for _, tc := range []struct {
		name  string
		q     *Query
		opts  Options
		walks bool
	}{
		{name: "unfiltered", q: &Query{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a")), SumOf(expr.Col("b"))},
		}},
		{name: "filtered", q: &Query{
			GroupBy: []string{"g"},
			Aggregates: []Aggregate{
				CountStar(),
				SumOf(expr.Mul(expr.Col("a"), expr.Sub(expr.Int(100), expr.Col("d")))),
				MinOf(expr.Col("c")),
			},
			Filter: expr.AndP(
				expr.Lt(expr.Col("d"), expr.Int(37)),
				expr.OrP(expr.Ge(expr.Add(expr.Col("a"), expr.Col("d")), expr.Int(20)), expr.StrEq("g", "k01")),
			),
		}},
		{name: "walked products", q: &Query{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("c")), SumOf(dc), SumOf(expr.Mul(dc, expr.Add(expr.Int(100), expr.Col("d"))))},
			Filter:     expr.Lt(expr.Col("d"), expr.Int(90)),
		}, opts: Options{ForceAggregation: ForceAgg(agg.StrategyMultiAggregate)}, walks: true},
		{name: "reduced", q: &Query{
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a")), SumOf(expr.Mul(expr.Col("a"), expr.Col("d")))},
			Filter:     expr.Lt(expr.Col("d"), expr.Int(37)),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Prepare(tbl, tc.q, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			segments, _ := p.segments()
			ctx := context.Background()
			for si, seg := range segments {
				sp, err := p.planFor(seg)
				if err != nil {
					t.Fatal(err)
				}
				if sp.eliminated {
					continue
				}
				if walks := slices.ContainsFunc(sp.sums, func(si sumInput) bool { return si.walked }); walks != tc.walks {
					t.Fatalf("segment %d: walks products %v, want %v", si, walks, tc.walks)
				}
				if reduces := sp.strategy == agg.StrategyReduce; reduces != (tc.q.GroupBy == nil) {
					t.Fatalf("segment %d: plans %v", si, sp.strategy)
				}
				e := sp.getExec()
				batches := seg.Batches()
				allocs := testing.AllocsPerRun(20, func() {
					e.reset()
					if err := e.scanBatches(ctx, batches); err != nil {
						t.Error(err)
					}
				})
				e.release()
				if allocs != 0 {
					t.Errorf("segment %d: %.1f allocs per scan in steady state, want 0", si, allocs)
				}
			}
		})
	}
}

// TestMergeKeysWithSeparatorBytes is the regression test for the group-key
// merge: dictionary values containing NUL bytes must not be conflated
// across the partial merge. A separator-joined key would collapse
// ("a\x00b", "c") and ("a", "b\x00c") into one group.
func TestMergeKeysWithSeparatorBytes(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "k1", Type: table.String},
		{Name: "k2", Type: table.String},
		{Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(2))
	if err != nil {
		t.Fatal(err)
	}
	// Spread the colliding tuples across segments so mergePartials must
	// combine them by key, and repeat each so counts are distinguishable.
	rows := []struct {
		k1, k2 string
		v      int64
	}{
		{"a\x00b", "c", 1},
		{"a", "b\x00c", 10},
		{"a\x00b", "c", 100},
		{"a", "b\x00c", 1000},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.k1, r.k2, r.v); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush()
	q := &Query{
		GroupBy:    []string{"k1", "k2"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))},
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("got %d groups, want 2 (NUL-bearing keys conflated): %+v", len(got.Rows), got.Rows)
	}
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "nul keys", got, want)
	for _, r := range got.Rows {
		if r.Stats[0].Count != 2 {
			t.Fatalf("group %q: count %d, want 2", r.Keys, r.Stats[0].Count)
		}
	}
}

// TestPreparedExplainStable checks Explain is served from the shared plan
// cache: repeated calls render byte-identical output, agree with the
// one-shot Explain, and build no scan state.
func TestPreparedExplainStable(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tbl := buildTable(t, rng, 12000, 4, 3000)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
		Filter:     expr.Lt(expr.Col("d"), expr.Int(40)),
	}
	p, err := Prepare(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Explain()
	if err != nil {
		t.Fatal(err)
	}
	rendered := FormatPlans(first)
	for i := 0; i < 3; i++ {
		again, err := p.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatPlans(again); got != rendered {
			t.Fatalf("Explain call %d rendered differently:\n%s\nvs\n%s", i+2, got, rendered)
		}
	}
	oneShot, err := Explain(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatPlans(oneShot); got != rendered {
		t.Fatalf("one-shot Explain differs:\n%s\nvs\n%s", got, rendered)
	}
}

// TestPreparedSeesNewRows checks a long-lived Prepared tracks the table:
// rows appended after Prepare are visible to later Runs (fresh
// mutable-region snapshots are planned on demand), and superseded snapshot
// plans are pruned rather than accumulating.
func TestPreparedSeesNewRows(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(100))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))}}
	p, err := Prepare(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(92))
	for round := 0; round < 6; round++ {
		for i := 0; i < 30+rng.Intn(100); i++ {
			if err := tbl.AppendRow(fmt.Sprintf("g%d", rng.Intn(3)), rng.Int63n(1000)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("round %d", round), got, want)
	}
	segments, _ := p.segments()
	p.mu.RLock()
	cached := len(p.plans)
	p.mu.RUnlock()
	if cached > len(segments) {
		t.Fatalf("plan cache holds %d plans for %d live segments; stale plans not pruned", cached, len(segments))
	}
}

// TestPreparedSeesLaterDeletes checks that a Prepared stays correct as rows
// are deleted after it was planned: delete state is read per batch at scan
// time, never frozen into a plan. Five shapes — the unfiltered and the
// filtered span plan, the same two with a bit-packed sum beside the RLE one
// (the row pipeline), and Q1's fused filter-and-group-map pass — are each
// Prepared once over a fresh table (lateDeleteTable) and compared with
// RunNaive after every single delete: batch and run edges first, then
// random rows.
func TestPreparedSeesLaterDeletes(t *testing.T) {
	sumR := []Aggregate{CountStar(), SumOf(expr.Col("r"))}
	mixed := []Aggregate{CountStar(), SumOf(expr.Col("r")), SumOf(expr.Col("v"))}
	rLE10 := expr.Le(expr.Col("r"), expr.Int(10))
	for _, sh := range []struct {
		name  string
		q     *Query
		check func(sp *segPlan) bool // the plan takes the path the shape names
	}{
		{"unfiltered span", &Query{Aggregates: sumR}, func(sp *segPlan) bool { return sp.spanAgg }},
		{"filtered span", &Query{Aggregates: sumR, Filter: rLE10}, func(sp *segPlan) bool { return sp.spanAgg }},
		{"unfiltered mixed", &Query{Aggregates: mixed}, func(sp *segPlan) bool { return !sp.spanAgg }},
		{"filtered mixed", &Query{Aggregates: mixed, Filter: rLE10}, func(sp *segPlan) bool { return !sp.spanAgg }},
		{"fused q1", &Query{
			GroupBy:    []string{"flag", "status"},
			Aggregates: []Aggregate{SumOf(expr.Col("v")), CountStar()},
			Filter:     expr.Le(expr.Col("date"), expr.Int(3000)),
		}, func(sp *segPlan) bool { return sp.fused != nil }},
	} {
		t.Run(sh.name, func(t *testing.T) {
			tbl := lateDeleteTable(t)
			p, err := Prepare(tbl, sh.q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			segments, _ := p.segments()
			for _, seg := range segments {
				if sp, err := p.planFor(seg); err != nil || !sh.check(sp) {
					t.Errorf("the plan does not take the path the shape names (%v)", err)
				}
			}
			rng := rand.New(rand.NewSource(34))
			deletes := []int{0, 511, 512, colstore.BatchRows - 1, colstore.BatchRows, tbl.Rows() - 1}
			for len(deletes) < 24 {
				deletes = append(deletes, rng.Intn(tbl.Rows()))
			}
			for d, row := range deletes {
				if err := tbl.Delete(row); err != nil {
					t.Fatal(err)
				}
				got, err := p.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunNaive(tbl, sh.q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("after delete %d (row %d)", d, row), got, want)
			}
		})
	}
}

// lateDeleteTable builds one segment of two batches: an RLE column r (runs
// of 512 over 0..15), a bit-packed v, a 12-bit bit-packed date and Q1's two
// dictionary group-key columns, flag (3 values) and status (2).
func lateDeleteTable(t *testing.T) *table.Table {
	t.Helper()
	const n = 2 * colstore.BatchRows
	rng := rand.New(rand.NewSource(33))
	ints := map[string][]int64{"r": make([]int64, n), "v": make([]int64, n), "date": make([]int64, n)}
	strs := map[string][]string{"flag": make([]string, n), "status": make([]string, n)}
	for i := 0; i < n; i++ {
		ints["r"][i] = int64(i / 512 % 16)
		ints["v"][i] = rng.Int63n(1 << 10)
		ints["date"][i] = rng.Int63n(1 << 12)
		strs["flag"][i] = []string{"A", "N", "R"}[rng.Intn(3)]
		strs["status"][i] = []string{"F", "O"}[rng.Intn(2)]
	}
	tbl, err := table.New(table.Schema{
		{Name: "flag", Type: table.String}, {Name: "status", Type: table.String},
		{Name: "r", Type: table.Int64}, {Name: "v", Type: table.Int64}, {Name: "date", Type: table.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	assertKind(t, tbl, "r", encoding.KindRLE)
	assertKind(t, tbl, "v", encoding.KindBitPack)
	return tbl
}

// TestPreparedRunCancelled checks cancellation is honoured between batch
// ranges: a cancelled context aborts the scan with the context's error.
func TestPreparedRunCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	tbl := buildTable(t, rng, 20000, 4, 6000)
	q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar()}}
	p, err := Prepare(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled context: err = %v, want %v", err, context.Canceled)
	}
	// The same Prepared still works with a live context afterwards.
	got, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "after cancel", got, want)
}

// TestPreparedPerCallStats pins RunTraced's per-caller contract on the
// untraced path: the result matches Run, and each concurrent caller gets
// its own stats copy with the scan's true row counts — there is no shared
// target an execution could alias.
func TestPreparedPerCallStats(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tbl := buildTable(t, rng, 20000, 4, 6000)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("b"))},
		Filter:     expr.Lt(expr.Col("d"), expr.Int(50)),
	}
	p, err := Prepare(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var selected int64
	for _, r := range want.Rows {
		selected += r.Stats[0].Count
	}

	const goroutines = 8
	var wg sync.WaitGroup
	statsOut := make([]ScanStats, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, st, err := p.RunTraced(context.Background(), nil)
			if err != nil {
				errs[g] = err
				return
			}
			assertSameResult(t, fmt.Sprintf("goroutine %d", g), res, want)
			statsOut[g] = st
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		st := statsOut[g]
		if st.RowsTotal != int64(tbl.Rows()) {
			t.Errorf("goroutine %d: RowsTotal %d, want %d", g, st.RowsTotal, tbl.Rows())
		}
		if st.RowsSelected != selected {
			t.Errorf("goroutine %d: RowsSelected %d, want %d", g, st.RowsSelected, selected)
		}
		if st.SegmentsScanned == 0 {
			t.Errorf("goroutine %d: no segments recorded", g)
		}
	}
}
