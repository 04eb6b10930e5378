package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/table"
)

// oracleOpts disables every encoded-domain specialization, forcing the
// decode-then-filter baseline inside the real engine: predicates evaluate
// as compiled residuals on decoded int64 values (or unpacked dictionary
// ids), aggregation materializes rows. Every encoded path must be
// byte-identical to this.
func oracleOpts() Options {
	return Options{
		DisableZoneMaps:     true,
		DisablePackedFilter: true,
		DisableRLEDomain:    true,
		DisableDictDomain:   true,
		DisableDeltaDomain:  true,
	}
}

// buildEncodedTable creates a table whose columns provably land on
// different encodings: g dictionary (cardinality card), rate and level RLE
// (long runs), ts delta (sorted, small increments), noise bit-packed. The
// encodings are asserted, not assumed — ChooseInt picks by size, and a
// test that silently exercised the wrong encoding would pin nothing.
func buildEncodedTable(t *testing.T, rng *rand.Rand, n, card, segRows int) *table.Table {
	t.Helper()
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "rate", Type: table.Int64},
		{Name: "level", Type: table.Int64},
		{Name: "ts", Type: table.Int64},
		{Name: "noise", Type: table.Int64},
	}, table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	ints := map[string][]int64{
		"rate": make([]int64, n), "level": make([]int64, n),
		"ts": make([]int64, n), "noise": make([]int64, n),
	}
	strs := map[string][]string{"g": make([]string, n)}
	ts := int64(1000)
	for i := 0; i < n; i++ {
		strs["g"][i] = fmt.Sprintf("k%02d", rng.Intn(card))
		ints["rate"][i] = int64(i / 400 % 23)   // runs of 400
		ints["level"][i] = int64((i / 700) % 5) // runs of 700
		ts += int64(rng.Intn(3))                // nondecreasing
		ints["ts"][i] = ts                      //
		ints["noise"][i] = rng.Int63n(1 << 14)  // incompressible
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	assertKind(t, tbl, "rate", encoding.KindRLE)
	assertKind(t, tbl, "level", encoding.KindRLE)
	assertKind(t, tbl, "ts", encoding.KindDelta)
	assertKind(t, tbl, "noise", encoding.KindBitPack)
	return tbl
}

func assertKind(t *testing.T, tbl *table.Table, col string, want encoding.Kind) {
	t.Helper()
	for si, seg := range tbl.Segments() {
		c, err := seg.IntCol(col)
		if err != nil {
			t.Fatal(err)
		}
		if c.Kind() != want {
			t.Fatalf("segment %d: column %q encoded as %v, want %v", si, col, c.Kind(), want)
		}
	}
}

// encodedDomainPreds is the predicate zoo the encoded-domain suites sweep:
// every pushed domain (rle-run, dict, delta-prune), every comparison shape,
// clamping edges, and mixed conjunctions spanning encodings.
func encodedDomainPreds() []expr.Pred {
	return []expr.Pred{
		// RLE, all ops and both boundary directions.
		expr.Le(expr.Col("rate"), expr.Int(5)),
		expr.Lt(expr.Col("rate"), expr.Int(1)),
		expr.Ge(expr.Col("rate"), expr.Int(20)),
		expr.Gt(expr.Col("rate"), expr.Int(22)), // clamp to none
		expr.Eq(expr.Col("rate"), expr.Int(7)),
		expr.Ne(expr.Col("rate"), expr.Int(0)),
		expr.Le(expr.Col("rate"), expr.Int(100)), // clamp to all
		// Delta (monotonic): range pruning resolves most batches whole.
		expr.Le(expr.Col("ts"), expr.Int(1500)),
		expr.Gt(expr.Col("ts"), expr.Int(9000)),
		expr.Eq(expr.Col("ts"), expr.Int(2000)),
		// Dictionary string predicates: point, negation, set, miss.
		expr.StrEq("g", "k01"),
		expr.StrNe("g", "k02"),
		expr.StrInSet("g", "k00", "k01"),
		expr.StrInSet("g", "k00", "k03"), // non-contiguous ids → bitmap
		expr.StrEq("g", "nope"),          // absent value → constant none
		// Conjunctions across encodings.
		expr.AndP(expr.Le(expr.Col("rate"), expr.Int(9)), expr.Ge(expr.Col("level"), expr.Int(2))),
		expr.AndP(expr.Le(expr.Col("rate"), expr.Int(9)), expr.StrEq("g", "k00")),
		expr.AndP(expr.Le(expr.Col("ts"), expr.Int(5000)), expr.Ne(expr.Col("rate"), expr.Int(3))),
		expr.AndP(expr.Le(expr.Col("noise"), expr.Int(8000)), expr.Ge(expr.Col("rate"), expr.Int(11))),
		// Residual shapes that must never push.
		expr.OrP(expr.Le(expr.Col("rate"), expr.Int(3)), expr.StrEq("g", "k01")),
		expr.Lt(expr.Col("rate"), expr.Col("level")),
	}
}

// TestEncodedDomainPushdown checks every pushed predicate shape against
// the decode-then-filter oracle across group-by shapes, with encodings
// asserted per column.
func TestEncodedDomainPushdown(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	tbl := buildEncodedTable(t, rng, 12000, 4, 5000)
	queries := []*Query{
		{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("rate"))}},
		{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("noise")), SumOf(expr.Col("ts"))}},
		{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("rate")), SumOf(expr.Col("noise"))}},
	}
	for pi, pred := range encodedDomainPreds() {
		for qi, base := range queries {
			q := &Query{GroupBy: base.GroupBy, Aggregates: base.Aggregates, Filter: pred}
			want, err := Run(tbl, q, oracleOpts())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(tbl, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("pred %d query %d: %s", pi, qi, pred), got, want)
		}
	}
}

// TestExplainEncodedDomains pins the per-predicate strategy labels Explain
// reports for each encoding's pushdown; a value no dictionary holds
// eliminates the segment instead (want nil).
func TestExplainEncodedDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	tbl := buildEncodedTable(t, rng, 8000, 4, 8000)
	cases := []struct {
		pred expr.Pred
		want []string
	}{
		{expr.Le(expr.Col("rate"), expr.Int(5)), []string{"rle-run"}},
		{expr.Le(expr.Col("ts"), expr.Int(5000)), []string{"delta-prune"}},
		{expr.Le(expr.Col("noise"), expr.Int(4000)), []string{"packed"}},
		{expr.StrEq("g", "k01"), []string{"dict-eq"}},
		{expr.StrNe("g", "k01"), []string{"dict-ne"}},
		{expr.StrInSet("g", "k00", "k01"), []string{"dict-range"}},
		{expr.StrInSet("g", "k00", "k02"), []string{"dict-bitmap"}},
		{expr.StrEq("g", "nope"), nil},
		{expr.AndP(expr.Le(expr.Col("rate"), expr.Int(5)), expr.StrEq("g", "k00")), []string{"rle-run", "dict-eq"}},
	}
	for _, tc := range cases {
		q := &Query{Aggregates: []Aggregate{CountStar()}, Filter: tc.pred}
		plans, err := Explain(tbl, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) == 0 {
			t.Fatal("no plans")
		}
		if plans[0].Eliminated != (tc.want == nil) {
			t.Fatalf("%s: eliminated %v, want %v", tc.pred, plans[0].Eliminated, tc.want == nil)
		}
		got := plans[0].PushedDomains
		if len(got) != len(tc.want) {
			t.Fatalf("%s: domains %v, want %v", tc.pred, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: domains %v, want %v", tc.pred, got, tc.want)
			}
		}
	}
}

// TestSpanAggregation exercises the fully encoded span path: an RLE filter
// over RLE sums with no group-by must aggregate at run granularity (stats
// prove the path ran) and still match the oracle exactly, across the
// selectivity range.
func TestSpanAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	tbl := buildEncodedTable(t, rng, 12000, 4, 5000)
	for _, thr := range []int64{0, 3, 11, 22} {
		q := &Query{
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("rate")), SumOf(expr.Col("level"))},
			Filter:     expr.Le(expr.Col("rate"), expr.Int(thr)),
		}
		want, err := Run(tbl, q, oracleOpts())
		if err != nil {
			t.Fatal(err)
		}
		got, st := runTraced(t, tbl, q, Options{}, nil)
		assertSameResult(t, fmt.Sprintf("span thr=%d", thr), got, want)
		if st.RunSpanBatches == 0 {
			t.Fatalf("thr=%d: span path never engaged: %+v", thr, st)
		}
		if st.Gather+st.Compact+st.SpecialGroup != 0 {
			t.Fatalf("thr=%d: span batches chose row selection methods: %+v", thr, st)
		}
	}

	// A conjunction of two RLE predicates still rides the span path.
	q := &Query{
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("rate"))},
		Filter:     expr.AndP(expr.Le(expr.Col("rate"), expr.Int(9)), expr.Ge(expr.Col("level"), expr.Int(1))),
	}
	want, err := Run(tbl, q, oracleOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, st := runTraced(t, tbl, q, Options{}, nil)
	assertSameResult(t, "span conj", got, want)
	if st.RunSpanBatches == 0 {
		t.Fatalf("conjunction: span path never engaged: %+v", st)
	}

	// Deletes keep the span path: the batch holding the deleted row
	// intersects its spans with the segment's live spans, every batch still
	// runs in the run domain, and the answer drops the row.
	tbl.Segments()[0].MarkDeleted(5)
	want, err = Run(tbl, q, oracleOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, st = runTraced(t, tbl, q, Options{}, nil)
	assertSameResult(t, "span after delete", got, want)
	if st.RunSpanBatches != st.Batches-st.BatchesSkipped {
		t.Fatalf("after delete: %d of %d batches (%d skipped) on the span path", st.RunSpanBatches, st.Batches, st.BatchesSkipped)
	}
}

// TestEncodedDomainAblation sweeps every combination of the encoded-domain
// ablation switches over the predicate zoo: all sixteen combinations must
// produce identical results. Run under -race (make race), this also pins
// the concurrency safety of the shared immutable predicates, since every
// Run fans out across GOMAXPROCS workers.
func TestEncodedDomainAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	tbl := buildEncodedTable(t, rng, 16000, 4, 3500)
	q := func(p expr.Pred) *Query {
		return &Query{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("rate")), SumOf(expr.Col("noise"))},
			Filter:     p,
		}
	}
	for pi, pred := range encodedDomainPreds() {
		want, err := Run(tbl, q(pred), oracleOpts())
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 16; mask++ {
			opts := Options{
				DisableRLEDomain:   mask&1 != 0,
				DisableDictDomain:  mask&2 != 0,
				DisableDeltaDomain: mask&4 != 0,
				DisableZoneMaps:    mask&8 != 0,
			}
			got, err := Run(tbl, q(pred), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("pred %d mask %04b: %s", pi, mask, pred), got, want)
		}
	}
}

// fuzzAssertSame compares two results inside a fuzz body (assertSameResult
// is test-helper shaped, reuse it).
func fuzzAssertSame(t *testing.T, label string, got, want *Result) {
	assertSameResult(t, label, got, want)
}

// FuzzRLEDomainFilter drives the run-domain filter (and the span
// aggregation path) with fuzzer-shaped run structure, thresholds, and
// operators, or no filter at all, checking against the decode-then-filter
// oracle. The query is Prepared first; then the rows the input marks are
// deleted, and the same Prepared must drop them, as must the oracle.
func FuzzRLEDomainFilter(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, int64(2), uint8(0), uint8(3))
	f.Add([]byte{0, 0, 0, 255, 255}, int64(-1), uint8(3), uint8(1))
	f.Add([]byte{}, int64(0), uint8(2), uint8(9))
	// Long runs, so v encodes as RLE, with deletes in both: no filter (the
	// unfiltered span plan), and v <= -5, which keeps the first run only.
	runs := append(bytes.Repeat([]byte{3}, 40), bytes.Repeat([]byte{12}, 40)...)
	f.Add(runs, int64(0), uint8(6), uint8(7))
	f.Add(runs, int64(5), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, thr int64, opSel, runScale uint8) {
		// Derive a runny value sequence: each byte contributes a run of
		// 1..runScale+1 copies of a small signed value.
		var vals []int64
		for _, b := range data {
			v := int64(b%16) - 8
			run := int(runScale)%8 + 1
			for j := 0; j < run && len(vals) < 6000; j++ {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			vals = []int64{0}
		}
		tbl, err := table.New(table.Schema{
			{Name: "g", Type: table.String},
			{Name: "v", Type: table.Int64},
		}, table.WithSegmentRows(2048))
		if err != nil {
			t.Fatal(err)
		}
		ints := map[string][]int64{"v": vals}
		strs := map[string][]string{"g": make([]string, len(vals))}
		for i := range strs["g"] {
			strs["g"][i] = "k"
		}
		if err := tbl.AppendColumns(ints, strs); err != nil {
			t.Fatal(err)
		}
		tbl.Flush()
		var pred expr.Pred
		c, k := expr.Col("v"), expr.Int(thr%20-10)
		switch opSel % 7 {
		case 0:
			pred = expr.Le(c, k)
		case 1:
			pred = expr.Lt(c, k)
		case 2:
			pred = expr.Ge(c, k)
		case 3:
			pred = expr.Gt(c, k)
		case 4:
			pred = expr.Eq(c, k)
		case 5:
			pred = expr.Ne(c, k)
		}
		q := &Query{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))}, Filter: pred}
		p, err := Prepare(tbl, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Every input byte ≡ 3 (mod 4) deletes one row, spread by position.
		for i, b := range data {
			if b%4 == 3 {
				if err := tbl.Delete((i*37 + int(b)) % len(vals)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := Run(tbl, q, oracleOpts())
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fuzzAssertSame(t, fmt.Sprintf("rle %v", pred), got, want)
	})
}

// FuzzDictDomainFilter drives the dict-code pushdown with fuzzer-shaped
// dictionaries and membership sets — point, range, complement, bitmap, and
// constant shapes all fall out of the set structure — checking against the
// decode-then-filter oracle.
func FuzzDictDomainFilter(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint16(0b101), false)
	f.Add([]byte{9, 9, 9, 0}, uint16(0xFFFF), true)
	f.Add([]byte{}, uint16(0), false)
	f.Fuzz(func(t *testing.T, data []byte, memberBits uint16, negate bool) {
		n := len(data)
		if n == 0 {
			n = 1
			data = []byte{0}
		}
		if n > 6000 {
			n = 6000
			data = data[:n]
		}
		strs := map[string][]string{"s": make([]string, n)}
		ints := map[string][]int64{"v": make([]int64, n)}
		for i, b := range data {
			strs["s"][i] = fmt.Sprintf("w%02d", b%13)
			ints["v"][i] = int64(binary.LittleEndian.Uint16([]byte{b, data[(i+1)%len(data)]})) % 100
		}
		tbl, err := table.New(table.Schema{
			{Name: "s", Type: table.String},
			{Name: "v", Type: table.Int64},
		}, table.WithSegmentRows(2048))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AppendColumns(ints, strs); err != nil {
			t.Fatal(err)
		}
		tbl.Flush()
		// Membership set from the bit pattern, including values absent from
		// the dictionary ("w13" upward never occur).
		var values []string
		for bit := 0; bit < 16; bit++ {
			if memberBits&(1<<bit) != 0 {
				values = append(values, fmt.Sprintf("w%02d", bit))
			}
		}
		if len(values) == 0 {
			values = []string{"nope"}
		}
		pred := expr.StrIn{Col: "s", Values: values, Negate: negate}
		q := &Query{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))}, Filter: pred}
		want, err := Run(tbl, q, oracleOpts())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(tbl, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fuzzAssertSame(t, fmt.Sprintf("dict %s", pred), got, want)
	})
}
