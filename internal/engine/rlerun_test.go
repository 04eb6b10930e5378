package engine

import (
	"testing"

	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// Global sums over RLE-encoded columns aggregate at run granularity on the
// encoded data. The result must match the naive oracle exactly, and the
// path must only engage for single-group scans whose every sum is a bare
// RLE column: it does for the unfiltered all-RLE query, and not for one
// that mixes in a bit-packed sum or for a grouped, filtered one.
func TestRLERunLevelGlobalSum(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "rate", Type: table.Int64}, // long runs → encoder picks RLE
		{Name: "noise", Type: table.Int64},
	}, table.WithSegmentRows(3000))
	if err != nil {
		t.Fatal(err)
	}
	n := 10000
	for i := 0; i < n; i++ {
		_ = tbl.AppendRow("k", int64(i/500), int64(i%97))
	}
	tbl.Flush()
	// Confirm the encoder actually chose RLE for the run column.
	col, err := tbl.Segments()[0].IntCol("rate")
	if err != nil {
		t.Fatal(err)
	}
	if col.Kind() != encoding.KindRLE {
		t.Fatalf("rate encoded as %v, want rle", col.Kind())
	}

	for _, tc := range []struct {
		label   string
		q       *Query
		runSums int
	}{
		{"rle global", &Query{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("rate")), AvgOf(expr.Col("rate"))}}, 1},
		{"rle+packed global", &Query{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("rate")), SumOf(expr.Col("noise"))}}, 0},
		{"rle grouped filtered", &Query{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{SumOf(expr.Col("rate"))},
			Filter:     expr.Lt(expr.Col("noise"), expr.Int(50)),
		}, 0},
	} {
		got, st := runTraced(t, tbl, tc.q, Options{}, nil)
		want, err := RunNaive(tbl, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, tc.label, got, want)
		plans, err := Explain(tbl, tc.q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for si, p := range plans {
			if p.RunLevelSums != tc.runSums {
				t.Errorf("%s: segment %d plans %d run-level sums, want %d", tc.label, si, p.RunLevelSums, tc.runSums)
			}
		}
		if wantBatches := int64(tc.runSums) * st.Batches; st.RunSpanBatches != wantBatches {
			t.Errorf("%s: %d of %d batches on the span path, want %d", tc.label, st.RunSpanBatches, st.Batches, wantBatches)
		}
	}
}

// TestRLESumRange sums every range of a small RLE column as one span, the
// way the span path sums an unfiltered batch.
func TestRLESumRange(t *testing.T) {
	vals := []int64{5, 5, 5, -2, -2, 7, 7, 7, 7, 0}
	c := encoding.NewRLE(vals)
	for start := 0; start <= len(vals); start++ {
		for n := 0; start+n <= len(vals); n++ {
			var want int64
			for i := start; i < start+n; i++ {
				want += vals[i]
			}
			if got := c.SumSpans(start, []sel.Span{{End: int32(n)}}); got != want {
				t.Fatalf("SumSpans(%d, [0,%d))=%d want %d", start, n, got, want)
			}
		}
	}
}
