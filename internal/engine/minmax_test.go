package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/expr"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// MIN/MAX are the §2.2 "mechanical extension" of the SUM machinery; they
// must agree with the naive oracle across every selection method and
// aggregation strategy, with and without filters, including the
// frame-of-reference shift for plain packed columns.
func TestMinMaxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	tbl := buildTable(t, rng, 20000, 6, 6000)
	queries := []*Query{
		{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), MinOf(expr.Col("a")), MaxOf(expr.Col("a"))},
		},
		{
			// Mixed with sums, across a negative-valued wide column.
			GroupBy: []string{"g"},
			Aggregates: []Aggregate{
				SumOf(expr.Col("b")), MinOf(expr.Col("c")), MaxOf(expr.Col("c")), CountStar(),
			},
			Filter: expr.Lt(expr.Col("d"), expr.Int(60)),
		},
		{
			// Expression extrema (can be negative).
			GroupBy: []string{"g"},
			Aggregates: []Aggregate{
				MinOf(expr.Sub(expr.Col("a"), expr.Col("d"))),
				MaxOf(expr.Sub(expr.Col("a"), expr.Col("d"))),
			},
			Filter: expr.Ge(expr.Col("d"), expr.Int(20)),
		},
		{
			// One group with an extremum: not reduced, even when forced.
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("b")), MinOf(expr.Col("c"))},
			Filter:     expr.Lt(expr.Col("d"), expr.Int(60)),
		},
	}
	for qi, q := range queries {
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range []*sel.Method{nil, ForceSel(sel.MethodGather), ForceSel(sel.MethodCompact), ForceSel(sel.MethodSpecialGroup)} {
			for _, st := range []*agg.Strategy{nil, ForceAgg(agg.StrategyScalar), ForceAgg(agg.StrategySortBased), ForceAgg(agg.StrategyInRegister), ForceAgg(agg.StrategyMultiAggregate), ForceAgg(agg.StrategyReduce)} {
				got, err := Run(tbl, q, Options{ForceSelection: sm, ForceAggregation: st})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("q%d sel=%v st=%v", qi, fmtPtr(sm), fmtPtr(st)), got, want)
			}
		}
	}
}

func TestMinMaxSingleRowGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	tbl := buildTable(t, rng, 64, 64, 64) // most groups have one row
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{MinOf(expr.Col("c")), MaxOf(expr.Col("c")), CountStar()},
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := RunNaive(tbl, q)
	assertSameResult(t, "single-row groups", got, want)
	for _, row := range got.Rows {
		if row.Stats[2].Count == 1 && row.Stats[0].Sum != row.Stats[1].Sum {
			t.Fatalf("single-row group min != max: %+v", row)
		}
	}
}

func TestMinMaxAcrossSegmentsMerges(t *testing.T) {
	// Distinct value ranges per segment force the merge to pick extrema
	// across partials, not just within one segment.
	tbl := mustTable(t, 3000, 1000, func(i int) (string, int64) {
		return "k", int64(i) // segment 0: 0..999, segment 2: 2000..2999
	})
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{MinOf(expr.Col("v")), MaxOf(expr.Col("v"))},
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0].Stats[0].Sum != 0 || got.Rows[0].Stats[1].Sum != 2999 {
		t.Fatalf("merged extrema: %+v", got.Rows[0].Stats)
	}
}

func TestMinMaxNames(t *testing.T) {
	q := &Query{Aggregates: []Aggregate{MinOf(expr.Col("v")), MaxOf(expr.Col("v"))}}
	names := q.aggNames()
	if names[0] != "min(v)" || names[1] != "max(v)" {
		t.Fatalf("names=%v", names)
	}
}

func mustTable(t *testing.T, n, segRows int, gen func(i int) (string, int64)) *tableT {
	t.Helper()
	tbl, err := newTestTable(segRows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g, v := gen(i)
		if err := tbl.AppendRow(g, v); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush()
	return tbl
}

// tableT and newTestTable keep the helper above free of a direct table
// import alias clash with the package-level buildTable helper.
type tableT = table.Table

func newTestTable(segRows int) (*tableT, error) {
	return table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(segRows))
}
