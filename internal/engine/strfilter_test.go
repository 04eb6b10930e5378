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

// String predicates evaluate on encoded dictionary ids. They must agree
// with the naive oracle across selection methods and strategies, compose
// with integer predicates, handle values absent from some segments'
// dictionaries, and drive dictionary-based segment elimination.
func TestStringPredicatesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	tbl := buildTable(t, rng, 20000, 8, 6000)
	queries := []*Query{
		{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
			Filter:     expr.StrEq("g", "k03"),
		},
		{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("b"))},
			Filter:     expr.StrInSet("g", "k00", "k05", "k07", "missing"),
		},
		{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar()},
			Filter:     expr.StrNe("g", "k01"),
		},
		{
			// Composition with integer predicates.
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
			Filter: expr.AndP(
				expr.StrInSet("g", "k02", "k04", "k06"),
				expr.Lt(expr.Col("d"), expr.Int(50)),
			),
		},
		{
			// Negation through NOT.
			Aggregates: []Aggregate{CountStar()},
			Filter:     expr.NotP(expr.StrEq("g", "k00")),
		},
	}
	for qi, q := range queries {
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range []*sel.Method{nil, ForceSel(sel.MethodGather), ForceSel(sel.MethodCompact), ForceSel(sel.MethodSpecialGroup)} {
			for _, st := range []*agg.Strategy{nil, ForceAgg(agg.StrategyScalar), ForceAgg(agg.StrategySortBased)} {
				got, err := Run(tbl, q, Options{ForceSelection: sm, ForceAggregation: st})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("q%d sel=%v st=%v", qi, fmtPtr(sm), fmtPtr(st)), got, want)
			}
		}
	}
}

func TestStringPredicateValueMissingEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tbl := buildTable(t, rng, 5000, 4, 2000)
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar()},
		Filter:     expr.StrEq("g", "nope"),
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 {
		t.Fatalf("rows=%d", len(got.Rows))
	}
	// NOT of a missing value selects everything.
	q.Filter = expr.StrNe("g", "nope")
	got, err = Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range got.Rows {
		total += r.Stats[0].Count
	}
	if total != 5000 {
		t.Fatalf("total=%d", total)
	}
}

func TestStringPredicateSegmentElimination(t *testing.T) {
	// Segments with disjoint dictionaries: only the segment containing the
	// sought value is scanned; the rest are eliminated via dictionaries.
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(1000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		_ = tbl.AppendRow(fmt.Sprintf("seg%d", i/1000), int64(i))
	}
	tbl.Flush()
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), MinOf(expr.Col("v")), MaxOf(expr.Col("v"))},
		Filter:     expr.StrEq("g", "seg1"),
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].Stats[0].Count != 1000 {
		t.Fatalf("rows=%+v", got.Rows)
	}
	if got.Rows[0].Stats[1].Sum != 1000 || got.Rows[0].Stats[2].Sum != 1999 {
		t.Fatalf("extrema=%+v", got.Rows[0].Stats)
	}
	// Elimination must not change the result.
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "str elimination", got, want)
}

func TestStringPredicateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	tbl := buildTable(t, rng, 100, 2, 100)
	q := &Query{
		Aggregates: []Aggregate{CountStar()},
		Filter:     expr.StrEq("a", "x"), // integer column
	}
	if _, err := Run(tbl, q, Options{}); err == nil {
		t.Fatal("string predicate on int column accepted")
	}
	if _, err := RunNaive(tbl, q); err == nil {
		t.Fatal("naive accepted too")
	}
}

func TestStrInString(t *testing.T) {
	if got := expr.StrEq("c", "x").String(); got != `(c = "x")` {
		t.Errorf("StrEq: %s", got)
	}
	if got := expr.StrNe("c", "x").String(); got != `(c <> "x")` {
		t.Errorf("StrNe: %s", got)
	}
	if got := expr.StrInSet("c", "x", "y").String(); got != `(c IN ("x", "y"))` {
		t.Errorf("StrInSet: %s", got)
	}
	cols := expr.StrColumns(expr.AndP(expr.StrEq("a", "1"), expr.OrP(expr.StrEq("b", "2"), expr.NotP(expr.StrEq("a", "3")))))
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("StrColumns=%v", cols)
	}
}
