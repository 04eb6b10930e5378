package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/expr"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// buildTable creates a table with a string group column g (cardinality
// given), int columns a (narrow), b (medium), c (wide), d (filter column
// 0..99), split into several segments.
func buildTable(t *testing.T, rng *rand.Rand, n, card, segRows int) *table.Table {
	t.Helper()
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "a", Type: table.Int64},
		{Name: "b", Type: table.Int64},
		{Name: "c", Type: table.Int64},
		{Name: "d", Type: table.Int64},
	}, table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	ints := map[string][]int64{
		"a": make([]int64, n), "b": make([]int64, n),
		"c": make([]int64, n), "d": make([]int64, n),
	}
	strs := map[string][]string{"g": make([]string, n)}
	for i := 0; i < n; i++ {
		strs["g"][i] = fmt.Sprintf("k%02d", rng.Intn(card))
		ints["a"][i] = rng.Int63n(100)
		ints["b"][i] = rng.Int63n(1 << 14)
		ints["c"][i] = rng.Int63n(1<<30) - (1 << 29)
		ints["d"][i] = rng.Int63n(100)
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	return tbl
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		// Compare keys element-wise: nil and empty both mean "no group-by".
		if len(got.Rows[i].Keys) != len(want.Rows[i].Keys) {
			t.Fatalf("%s row %d: keys %v vs %v", label, i, got.Rows[i].Keys, want.Rows[i].Keys)
		}
		for k := range want.Rows[i].Keys {
			if got.Rows[i].Keys[k] != want.Rows[i].Keys[k] {
				t.Fatalf("%s row %d: keys %v vs %v", label, i, got.Rows[i].Keys, want.Rows[i].Keys)
			}
		}
		if !reflect.DeepEqual(got.Rows[i].Stats, want.Rows[i].Stats) {
			t.Fatalf("%s row %d (%v): stats %+v vs %+v", label, i, want.Rows[i].Keys, got.Rows[i].Stats, want.Rows[i].Stats)
		}
	}
}

func TestBasicGroupCountSum(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	tbl := buildTable(t, rng, 20000, 4, 6000)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a")), SumOf(expr.Col("c"))},
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "basic", got, want)
	if len(got.Rows) != 4 {
		t.Fatalf("rows=%d", len(got.Rows))
	}
	// Keys sorted ascending.
	if got.Rows[0].Keys[0] != "k00" || got.Rows[3].Keys[0] != "k03" {
		t.Fatalf("ordering: %v", got.Rows)
	}
}

func TestFilterAllSelectionMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tbl := buildTable(t, rng, 30000, 8, 9000)
	for _, selTh := range []int64{5, 30, 60, 95} { // varying selectivity
		q := &Query{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a")), SumOf(expr.Col("b"))},
			Filter:     expr.Lt(expr.Col("d"), expr.Int(selTh)),
		}
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []sel.Method{sel.MethodGather, sel.MethodCompact, sel.MethodSpecialGroup} {
			got, err := Run(tbl, q, Options{ForceSelection: ForceSel(m)})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("sel=%v th=%d", m, selTh), got, want)
		}
		// Auto choice must agree too.
		got, err := Run(tbl, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("auto th=%d", selTh), got, want)
	}
}

func TestAllAggregationStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	tbl := buildTable(t, rng, 25000, 6, 7000)
	queries := []*Query{
		{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))}},
		{GroupBy: []string{"g"}, Aggregates: []Aggregate{SumOf(expr.Col("a")), SumOf(expr.Col("b")), SumOf(expr.Col("c"))}},
		{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("b"))},
			Filter: expr.Ge(expr.Col("d"), expr.Int(40))},
		// One group: Reduce unforced, every other strategy over the
		// special group it reserves when forced.
		{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a")), SumOf(expr.Col("c"))},
			Filter: expr.Ge(expr.Col("d"), expr.Int(40))},
	}
	for qi, q := range queries {
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []agg.Strategy{agg.StrategyScalar, agg.StrategySortBased, agg.StrategyInRegister, agg.StrategyMultiAggregate, agg.StrategyReduce} {
			got, err := Run(tbl, q, Options{ForceAggregation: ForceAgg(st)})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("q%d strat=%v", qi, st), got, want)
		}
	}
}

func TestExpressionAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	tbl := buildTable(t, rng, 15000, 4, 5000)
	// The Q1 shape: sum(b * (100 - a)) plus an average.
	q := &Query{
		GroupBy: []string{"g"},
		Aggregates: []Aggregate{
			CountStar(),
			SumOf(expr.Mul(expr.Col("b"), expr.Sub(expr.Int(100), expr.Col("a")))),
			AvgOf(expr.Col("b")),
		},
		Filter: expr.Le(expr.Col("d"), expr.Int(80)),
	}
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []agg.Strategy{agg.StrategyScalar, agg.StrategySortBased, agg.StrategyMultiAggregate} {
		got, err := Run(tbl, q, Options{ForceAggregation: ForceAgg(st)})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("expr strat=%v", st), got, want)
	}
	// AVG output sanity.
	got, _ := Run(tbl, q, Options{})
	for _, row := range got.Rows {
		avg := row.Avg(2)
		if avg <= 0 || avg >= 1<<14 {
			t.Fatalf("avg out of range: %v", avg)
		}
	}
}

func TestNoGroupByGlobalAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	tbl := buildTable(t, rng, 12000, 4, 4000)
	q := &Query{
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
		Filter:     expr.Gt(expr.Col("d"), expr.Int(49)),
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := RunNaive(tbl, q)
	assertSameResult(t, "global", got, want)
	if len(got.Rows) != 1 || len(got.Rows[0].Keys) != 0 {
		t.Fatalf("global agg shape: %+v", got.Rows)
	}
}

func TestMultiColumnGroupBy(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "f", Type: table.String},
		{Name: "s", Type: table.String},
		{Name: "x", Type: table.Int64},
	}, table.WithSegmentRows(3000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(65))
	n := 10000
	ints := map[string][]int64{"x": make([]int64, n)}
	strs := map[string][]string{"f": make([]string, n), "s": make([]string, n)}
	flags := []string{"A", "N", "R"}
	stats := []string{"F", "O"}
	for i := 0; i < n; i++ {
		strs["f"][i] = flags[rng.Intn(3)]
		strs["s"][i] = stats[rng.Intn(2)]
		ints["x"][i] = rng.Int63n(50)
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	q := &Query{
		GroupBy:    []string{"f", "s"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("x"))},
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := RunNaive(tbl, q)
	assertSameResult(t, "multicol", got, want)
	if len(got.Rows) != 6 {
		t.Fatalf("rows=%d", len(got.Rows))
	}
	if got.Rows[0].Keys[0] != "A" || got.Rows[0].Keys[1] != "F" {
		t.Fatalf("first row: %v", got.Rows[0].Keys)
	}
}

func TestDeletedRowsExcluded(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	tbl := buildTable(t, rng, 8000, 4, 2000)
	for i := 0; i < 8000; i += 7 {
		if err := tbl.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))}}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := RunNaive(tbl, q)
	assertSameResult(t, "deletes", got, want)
	var total int64
	for _, r := range got.Rows {
		total += r.Stats[0].Count
	}
	if total != 8000-1143 { // ceil(8000/7) rows deleted
		t.Fatalf("total=%d", total)
	}
}

func TestSegmentElimination(t *testing.T) {
	// Build a table whose segments have disjoint d ranges, then filter so
	// only some segments can match.
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "d", Type: table.Int64},
	}, table.WithSegmentRows(1000))
	if err != nil {
		t.Fatal(err)
	}
	n := 5000
	ints := map[string][]int64{"d": make([]int64, n)}
	strs := map[string][]string{"g": make([]string, n)}
	for i := 0; i < n; i++ {
		ints["d"][i] = int64(i) // segment k holds [1000k, 1000k+1000)
		strs["g"][i] = "x"
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar()},
		Filter:     expr.Lt(expr.Col("d"), expr.Int(1500)),
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0].Stats[0].Count != 1500 {
		t.Fatalf("count=%d", got.Rows[0].Stats[0].Count)
	}
	// Elimination must not change results.
	got2, err := Run(tbl, q, Options{DisableElimination: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "elimination", got, got2)
	// A filter rejecting everything returns no rows.
	q.Filter = expr.Lt(expr.Col("d"), expr.Int(0))
	got3, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got3.Rows) != 0 {
		t.Fatalf("rows=%d", len(got3.Rows))
	}
}

func TestValidationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	tbl := buildTable(t, rng, 100, 2, 100)
	cases := []*Query{
		{GroupBy: []string{"g"}}, // no aggregates
		{GroupBy: []string{"nope"}, Aggregates: []Aggregate{CountStar()}},                   // missing col
		{Aggregates: []Aggregate{SumOf(expr.Col("g"))}},                                     // string sum
		{Aggregates: []Aggregate{SumOf(expr.Col("zz"))}},                                    // missing sum col
		{Aggregates: []Aggregate{{Kind: Sum}}},                                              // nil arg
		{Aggregates: []Aggregate{CountStar()}, Filter: expr.Eq(expr.Col("g"), expr.Int(0))}, // string filter col
	}
	for i, q := range cases {
		if _, err := Run(tbl, q, Options{}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := RunNaive(tbl, q); err == nil {
			t.Errorf("case %d: naive should also reject", i)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	tbl := buildTable(t, rng, 40000, 8, 5000)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("b"))},
		Filter:     expr.Lt(expr.Col("d"), expr.Int(70)),
	}
	serial, err := Run(tbl, q, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(tbl, q, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "parallel", parallel, serial)
}

func TestEmptyTable(t *testing.T) {
	tbl, _ := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "x", Type: table.Int64},
	})
	q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("x"))}}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 {
		t.Fatalf("rows=%d", len(got.Rows))
	}
}

func TestResultFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	tbl := buildTable(t, rng, 1000, 2, 1000)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a")), AvgOf(expr.Col("a"))},
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := got.Format()
	if !strings.Contains(text, "count(*)") || !strings.Contains(text, "k00") {
		t.Fatalf("format output:\n%s", text)
	}
	if len(strings.Split(strings.TrimSpace(text), "\n")) != 3 {
		t.Fatalf("expected header + 2 rows:\n%s", text)
	}
}

// Differential fuzzing: random tables, queries, and forced strategy/selection
// combinations must always match the naive oracle.
func TestDifferentialRandomized(t *testing.T) {
	selMethods := []*sel.Method{nil, ForceSel(sel.MethodGather), ForceSel(sel.MethodCompact), ForceSel(sel.MethodSpecialGroup)}
	strategies := []*agg.Strategy{nil, ForceAgg(agg.StrategyScalar), ForceAgg(agg.StrategySortBased), ForceAgg(agg.StrategyInRegister), ForceAgg(agg.StrategyMultiAggregate), ForceAgg(agg.StrategyReduce)}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 2000 + rng.Intn(6000)
		card := 1 + rng.Intn(12)
		segRows := 500 + rng.Intn(3000)
		tbl := buildTable(t, rng, n, card, segRows)

		var filter expr.Pred
		switch rng.Intn(4) {
		case 0:
			filter = nil
		case 1:
			filter = expr.Lt(expr.Col("d"), expr.Int(rng.Int63n(110)))
		case 2:
			filter = expr.AndP(expr.Ge(expr.Col("d"), expr.Int(10)), expr.Le(expr.Col("a"), expr.Int(rng.Int63n(100))))
		default:
			filter = expr.Eq(expr.Col("d"), expr.Int(rng.Int63n(100)))
		}
		aggs := []Aggregate{CountStar()}
		nSums := 1 + rng.Intn(4)
		pool := []expr.Expr{
			expr.Col("a"), expr.Col("b"), expr.Col("c"),
			expr.Mul(expr.Col("a"), expr.Int(3)),
			expr.Add(expr.Col("a"), expr.Col("b")),
		}
		for k := 0; k < nSums; k++ {
			aggs = append(aggs, SumOf(pool[rng.Intn(len(pool))]))
		}
		q := &Query{GroupBy: []string{"g"}, Aggregates: aggs, Filter: filter}
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range selMethods {
			for _, st := range strategies {
				got, err := Run(tbl, q, Options{ForceSelection: sm, ForceAggregation: st})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed=%d sel=%v strat=%v", seed, fmtPtr(sm), fmtPtr(st))
				assertSameResult(t, label, got, want)
			}
		}
	}
}

func fmtPtr[T fmt.Stringer](p *T) string {
	if p == nil {
		return "auto"
	}
	return (*p).String()
}

// A table that has been serialized and loaded must answer queries
// identically: the scan runs on the deserialized encoded segments with no
// re-encoding.
func TestQueryAfterSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	src := buildTable(t, rng, 15000, 6, 4000)
	_ = src.Delete(7)
	_ = src.Delete(7777)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("b")), MinOf(expr.Col("c"))},
		Filter:     expr.Lt(expr.Col("d"), expr.Int(75)),
	}
	want, err := Run(src, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := table.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(loaded, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "after round trip", got, want)
}

// Segment metadata must prove sums cannot overflow int64 (paper §2.1); a
// segment where the proof fails is refused rather than silently wrapped.
func TestOverflowProofRejectsExtremeSegments(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "huge", Type: table.Int64},
	}, table.WithSegmentRows(16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		_ = tbl.AppendRow("k", int64(1)<<61)
	}
	tbl.Flush()
	q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{SumOf(expr.Col("huge"))}}
	if _, err := Run(tbl, q, Options{}); err == nil {
		t.Fatal("unprovable sum accepted")
	}
	// MIN/MAX need no sum proof and must still work.
	q = &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{MinOf(expr.Col("huge")), MaxOf(expr.Col("huge"))}}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0].Stats[0].Sum != 1<<61 {
		t.Fatalf("min=%d", got.Rows[0].Stats[0].Sum)
	}
}

// Intra-segment parallelism: a single-segment table split across many
// workers must produce identical results to a serial scan, including
// MIN/MAX chunk merging and zero-count chunk suppression.
func TestIntraSegmentParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	tbl := buildTable(t, rng, 50000, 8, 1<<20) // one segment
	if len(tbl.Segments()) != 1 {
		t.Fatalf("segments=%d", len(tbl.Segments()))
	}
	q := &Query{
		GroupBy: []string{"g"},
		Aggregates: []Aggregate{
			CountStar(), SumOf(expr.Col("b")), MinOf(expr.Col("c")), MaxOf(expr.Col("c")), AvgOf(expr.Col("a")),
		},
		Filter: expr.Lt(expr.Col("d"), expr.Int(80)),
	}
	serial, err := Run(tbl, q, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
		par, err := Run(tbl, q, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", workers), par, serial)
	}
}

// The group-domain boundary: exactly 256 dictionary values fill the byte id
// space, leaving no room for a special group; one more must be rejected.
func TestGroupDomainBoundary(t *testing.T) {
	build := func(card int) *table.Table {
		tbl, _ := table.New(table.Schema{
			{Name: "g", Type: table.String},
			{Name: "v", Type: table.Int64},
		}, table.WithSegmentRows(1<<20))
		for i := 0; i < card*4; i++ {
			_ = tbl.AppendRow(fmt.Sprintf("g%03d", i%card), int64(i))
		}
		tbl.Flush()
		return tbl
	}
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))},
		Filter:     expr.Ge(expr.Col("v"), expr.Int(2)),
	}

	tbl := build(256)
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	// Auto mode works (no special group available; compact/gather only).
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "256 groups", got, want)
	// Forcing special group degrades to compact rather than corrupting.
	got, err = Run(tbl, q, Options{ForceSelection: ForceSel(sel.MethodSpecialGroup)})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "256 groups forced special", got, want)
	_, st := runTraced(t, tbl, q, Options{}, nil)
	if st.SpecialGroup != 0 {
		t.Fatalf("special group used with a full id space: %+v", st)
	}

	// 257 distinct values exceed the byte domain.
	if _, err := Run(build(257), q, Options{}); err == nil {
		t.Fatal("257-group domain accepted")
	}
}
