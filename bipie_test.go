package bipie_test

import (
	"fmt"
	"strings"
	"testing"

	"bipie"
)

// ExampleRun is the package quickstart: group, filter, and aggregate
// through the public API.
func ExampleRun() {
	tbl, _ := bipie.NewTable(bipie.Schema{
		{Name: "region", Type: bipie.String},
		{Name: "amount", Type: bipie.Int64},
	})
	for i := 0; i < 6; i++ {
		region := []string{"apac", "emea"}[i%2]
		_ = tbl.AppendRow(region, int64(10*(i+1)))
	}
	tbl.Flush()
	res, _ := bipie.Run(tbl, &bipie.Query{
		GroupBy:    []string{"region"},
		Aggregates: []bipie.Aggregate{bipie.CountStar(), bipie.SumOf(bipie.Col("amount"))},
	}, bipie.Options{})
	for _, row := range res.Rows {
		fmt.Printf("%s count=%d sum=%d\n", row.Keys[0], row.Stats[0].Count, row.Stats[1].Sum)
	}
	// Output:
	// apac count=3 sum=90
	// emea count=3 sum=120
}

func TestPublicAPIEndToEnd(t *testing.T) {
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "flag", Type: bipie.String},
		{Name: "qty", Type: bipie.Int64},
		{Name: "price", Type: bipie.Int64},
		{Name: "day", Type: bipie.Int64},
	}, bipie.WithSegmentRows(2048))
	if err != nil {
		t.Fatal(err)
	}
	n := 10000
	for i := 0; i < n; i++ {
		flag := []string{"A", "N", "R"}[i%3]
		if err := tbl.AppendRow(flag, int64(i%50+1), int64(i%1000*100), int64(i%365)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush()

	q := &bipie.Query{
		GroupBy: []string{"flag"},
		Aggregates: []bipie.Aggregate{
			bipie.CountStar(),
			bipie.SumOf(bipie.Col("qty")),
			bipie.SumOf(bipie.Mul(bipie.Col("price"), bipie.Col("qty"))),
			bipie.AvgOf(bipie.Col("qty")),
		},
		Filter: bipie.Le(bipie.Col("day"), bipie.Int(300)),
	}
	fast, err := bipie.Run(tbl, q, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := bipie.RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Rows) != 3 || len(slow.Rows) != 3 {
		t.Fatalf("rows=%d/%d", len(fast.Rows), len(slow.Rows))
	}
	for i := range fast.Rows {
		if fast.Rows[i].Keys[0] != slow.Rows[i].Keys[0] {
			t.Fatalf("row %d keys differ", i)
		}
		for a := range fast.Rows[i].Stats {
			if fast.Rows[i].Stats[a] != slow.Rows[i].Stats[a] {
				t.Fatalf("row %d agg %d: %+v vs %+v", i, a, fast.Rows[i].Stats[a], slow.Rows[i].Stats[a])
			}
		}
	}
	if !strings.Contains(fast.Format(), "count(*)") {
		t.Fatal("Format")
	}
}

func TestForcedStrategiesPublic(t *testing.T) {
	tbl, _ := bipie.NewTable(bipie.Schema{
		{Name: "g", Type: bipie.String},
		{Name: "v", Type: bipie.Int64},
		{Name: "f", Type: bipie.Int64},
	}, bipie.WithSegmentRows(4096))
	for i := 0; i < 12000; i++ {
		_ = tbl.AppendRow([]string{"x", "y", "z", "w"}[i%4], int64(i%128), int64(i%100))
	}
	tbl.Flush()
	q := &bipie.Query{
		GroupBy:    []string{"g"},
		Aggregates: []bipie.Aggregate{bipie.CountStar(), bipie.SumOf(bipie.Col("v"))},
		Filter:     bipie.Lt(bipie.Col("f"), bipie.Int(50)),
	}
	want, err := bipie.RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []bipie.SelectionMethod{bipie.SelectionGather, bipie.SelectionCompact, bipie.SelectionSpecialGroup} {
		for _, s := range []bipie.AggregationStrategy{bipie.AggregationScalar, bipie.AggregationSortBased, bipie.AggregationInRegister, bipie.AggregationMulti, bipie.AggregationReduce} {
			got, err := bipie.Run(tbl, q, bipie.Options{
				ForceSelection:   bipie.ForceSelection(m),
				ForceAggregation: bipie.ForceAggregation(s),
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", m, s, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%v/%v: rows", m, s)
			}
			for i := range want.Rows {
				if got.Rows[i].Stats[0] != want.Rows[i].Stats[0] || got.Rows[i].Stats[1] != want.Rows[i].Stats[1] {
					t.Fatalf("%v/%v row %d mismatch", m, s, i)
				}
			}
		}
	}
}
