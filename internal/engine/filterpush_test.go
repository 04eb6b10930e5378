package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bipie/internal/colstore"
	"bipie/internal/expr"
	"bipie/internal/table"
)

// Filter pushdown evaluates col-vs-constant conjuncts on encoded offsets.
// Beyond the differential suites (which now exercise it on every filtered
// query), these tests pin the clamping edge cases and the split logic.
func TestPushdownClampEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	tbl := buildTable(t, rng, 8000, 4, 3000) // d in [0,99]
	preds := []expr.Pred{
		expr.Le(expr.Col("d"), expr.Int(99)),   // all rows
		expr.Le(expr.Col("d"), expr.Int(1000)), // clamp to all
		expr.Lt(expr.Col("d"), expr.Int(0)),    // clamp to none
		expr.Ge(expr.Col("d"), expr.Int(0)),    // all
		expr.Gt(expr.Col("d"), expr.Int(99)),   // none
		expr.Eq(expr.Col("d"), expr.Int(-5)),   // out of range
		expr.Ne(expr.Col("d"), expr.Int(-5)),   // all
		expr.Eq(expr.Col("d"), expr.Int(0)),    // boundary value
		expr.Eq(expr.Col("d"), expr.Int(99)),   // boundary value
		expr.Lt(expr.Col("d"), expr.Int(math.MinInt64)),
		expr.Gt(expr.Col("d"), expr.Int(math.MaxInt64)),
		expr.AndP(expr.Ge(expr.Col("d"), expr.Int(10)), expr.Le(expr.Col("d"), expr.Int(20))),
		// Mixed pushable and residual conjuncts.
		expr.AndP(expr.Le(expr.Col("d"), expr.Int(50)), expr.Eq(expr.Add(expr.Col("a"), expr.Col("b")), expr.Col("c"))),
		// Fully residual.
		expr.Lt(expr.Add(expr.Col("d"), expr.Int(1)), expr.Int(30)),
	}
	for pi, pred := range preds {
		q := &Query{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
			Filter:     pred,
		}
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(tbl, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("pred %d: %s", pi, pred), got, want)
	}
}

// The packed-domain kernels, the unpack-then-compare fallback, and the
// zone-map refinement are evaluation strategies for the same predicate;
// every combination must produce identical results on every pushed shape.
func TestPackedPushdownAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	tbl := buildTable(t, rng, 20000, 4, 6000) // b: 14 bits, c: 30 bits, d: 7 bits
	preds := []expr.Pred{
		expr.Le(expr.Col("b"), expr.Int(5000)),
		expr.Gt(expr.Col("c"), expr.Int(0)),
		expr.Eq(expr.Col("d"), expr.Int(42)),
		expr.Ne(expr.Col("d"), expr.Int(42)),
		expr.AndP(expr.Ge(expr.Col("b"), expr.Int(100)), expr.Lt(expr.Col("c"), expr.Int(1<<20))),
	}
	for pi, pred := range preds {
		q := &Query{
			GroupBy:    []string{"g"},
			Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("a"))},
			Filter:     pred,
		}
		want, err := Run(tbl, q, Options{DisablePackedFilter: true, DisableZoneMaps: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{},
			{DisablePackedFilter: true},
			{DisableZoneMaps: true},
		} {
			got, err := Run(tbl, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("pred %d: %s (opts %+v)", pi, pred, opts), got, want)
		}
	}
}

// cmpHolds is the row-at-a-time meaning of x OP v.
func cmpHolds(op expr.CmpOp, x, v int64) bool {
	switch op {
	case expr.OpLT:
		return x < v
	case expr.OpLE:
		return x <= v
	case expr.OpGT:
		return x > v
	case expr.OpGE:
		return x >= v
	case expr.OpEQ:
		return x == v
	default: // expr.OpNE
		return x != v
	}
}

// pushHolds is the meaning of a live pushOp: x OP t on inclusive thresholds,
// in value space (int64) or frame-of-reference offset space (uint64).
func pushHolds[T int64 | uint64](op pushOp, x, t T) bool {
	switch op {
	case pushLE:
		return x <= t
	case pushGE:
		return x >= t
	case pushEQ:
		return x == t
	default: // pushNE
		return x != t
	}
}

// verdict is what a comparison does to a set of rows: keeps all of them,
// none of them, or some.
func verdict(kept, n int) pushOp {
	switch kept {
	case n:
		return pushAll
	case 0:
		return pushNone
	default:
		return pushLE // any live op: "mixed"
	}
}

// agrees reports whether a clamp outcome matches a brute-force verdict: the
// same constant, or live on both sides.
func agrees(got, want pushOp) bool {
	if got.constant() || want.constant() {
		return got == want
	}
	return true
}

// TestClampAgreement holds the one compare-vs-bounds decision to brute
// force. Over a column holding every value of [mn, mx], the clamp's outcome
// for each operator and threshold must be exactly what evaluating the
// comparison row by row says — all, none, or mixed — in value space, in
// offset space (the uint64 instantiation the bit-packed zone maps use, also
// against every sub-zone of the range), as pushCmp's verdict, and as the
// residual program's verdict for the comparison in either operand order
// (where it is a difference node against a threshold, or two int64 sides
// when the difference could wrap) — the one verdict segment elimination
// reads. Each returns a predicate exactly when the comparison is live; and
// a live outcome's inclusive threshold must select the very rows the
// original comparison does, as must the residual's mask.
func TestClampAgreement(t *testing.T) {
	ops := []expr.CmpOp{expr.OpLT, expr.OpLE, expr.OpGT, expr.OpGE, expr.OpEQ, expr.OpNE}
	ranges := [][2]int64{
		{0, 99},
		{7, 7},     // single-valued
		{-50, -10}, // negative Ref
		{-5, 5},
		{-3, -3}, // single-valued, negative Ref
		{math.MinInt64, math.MinInt64 + 3},
		{math.MaxInt64 - 3, math.MaxInt64},
	}
	for _, r := range ranges {
		mn, mx := r[0], r[1]
		size := int(mx-mn) + 1
		// Every value of the range, scrambled so no encoding is favoured
		// (7919 is prime, so the stride visits all of them).
		tbl := mustTable(t, 512, 1<<20, func(i int) (string, int64) {
			return "k", mn + int64(i*7919%size)
		})
		seg := tbl.Segments()[0]
		thresholds := []int64{math.MinInt64, mn, mn + (mx-mn)/2, mx, math.MaxInt64}
		if mn > math.MinInt64 {
			thresholds = append(thresholds, mn-1)
		}
		if mx < math.MaxInt64 {
			thresholds = append(thresholds, mx+1)
		}
		for _, op := range ops {
			for _, v := range thresholds {
				label := fmt.Sprintf("[%d,%d] %v %d", mn, mx, op, v)
				kept := 0
				for x := mn; ; x++ {
					if cmpHolds(op, x, v) {
						kept++
					}
					if x == mx {
						break
					}
				}
				want := verdict(kept, size)

				got, thr, ok := clampCmp(op, v, mn, mx)
				if !ok {
					t.Fatalf("%s: clamp declined a comparison operator", label)
				}
				if !agrees(got, want) {
					t.Errorf("%s: clamp says %d, brute force %d (pushAll=%d pushNone=%d)", label, got, want, pushAll, pushNone)
					continue
				}

				pred := expr.Cmp{Op: op, L: expr.Col("v"), R: expr.Int(v)}
				pp, pgot := pushCmp(pred, seg, &Options{})
				if pgot != got {
					t.Errorf("%s: pushdown verdict %d, clamp says %d", label, pgot, got)
				}
				if (pp != nil) == want.constant() {
					t.Errorf("%s: pushdown returned a predicate: %v, brute force %d", label, pp != nil, want)
				}
				mirrored := expr.Cmp{Op: op.Mirror(), L: expr.Int(v), R: expr.Col("v")}
				for _, resid := range []expr.Cmp{pred, mirrored} {
					rp, rgot, err := compileResidual(resid, seg, false)
					if err != nil {
						t.Fatalf("%s: residual %s: %v", label, resid, err)
					}
					if !agrees(rgot, want) {
						t.Errorf("%s: residual %s folds to %d, brute force %d", label, resid, rgot, want)
					}
					if (rp != nil) == want.constant() {
						t.Errorf("%s: residual %s returned a program: %v, brute force %d", label, resid, rp != nil, want)
					}
				}
				// NOT TRUE folds away and leaves the comparison alone under an
				// OR, which no conjunct pushes through: the residual's rows.
				q := &Query{Aggregates: []Aggregate{CountStar()}, Filter: expr.OrP(mirrored, expr.NotP(expr.True()))}
				res, err := Run(tbl, q, Options{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var rows, scanned int64
				for i := 0; i < 512; i++ {
					if cmpHolds(op, mn+int64(i*7919%size), v) {
						rows++
					}
				}
				if len(res.Rows) > 0 {
					scanned = res.Rows[0].Stats[0].Count
				}
				if scanned != rows {
					t.Errorf("%s: residual keeps %d rows, brute force %d", label, scanned, rows)
				}
				if got.constant() {
					continue
				}

				// A live outcome: same rows in value space and, after
				// subtracting Ref, in offset space; and against every
				// sub-zone the offset-space clamp is again what the zone's
				// rows say.
				off := uint64(thr - mn)
				for x := mn; ; x++ {
					if pushHolds(got, x, thr) != cmpHolds(op, x, v) {
						t.Errorf("%s: value %d: inclusive form disagrees in value space", label, x)
					}
					if pushHolds(got, uint64(x-mn), off) != cmpHolds(op, x, v) {
						t.Errorf("%s: value %d: inclusive form disagrees in offset space", label, x)
					}
					if x == mx {
						break
					}
				}
				for zlo := mn; zlo <= mx; zlo++ {
					zkept := 0
					for zhi := zlo; zhi <= mx; zhi++ {
						if cmpHolds(op, zhi, v) {
							zkept++
						}
						zwant := verdict(zkept, int(zhi-zlo)+1)
						zgot := clamp(got, off, uint64(zlo-mn), uint64(zhi-mn))
						if !agrees(zgot, zwant) {
							t.Errorf("%s: zone [%d,%d]: offset-space clamp says %d, brute force %d", label, zlo, zhi, zgot, zwant)
						}
						if vgot := clamp(got, thr, zlo, zhi); vgot != zgot {
							t.Errorf("%s: zone [%d,%d]: value-space clamp says %d, offset-space %d", label, zlo, zhi, vgot, zgot)
						}
						if zhi == math.MaxInt64 {
							break
						}
					}
					if zlo == math.MaxInt64 {
						break
					}
				}
			}
		}
	}
}

func TestSplitPushdown(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	tbl := buildTable(t, rng, 1000, 2, 1000)
	seg := tbl.Segments()[0]

	// Fully pushable conjunction.
	p := expr.AndP(expr.Le(expr.Col("d"), expr.Int(5)), expr.Ge(expr.Col("a"), expr.Int(1)))
	pushed, resid, refuted := splitPushdown(p, seg, &Options{})
	if len(pushed) != 2 || resid != nil || refuted {
		t.Fatalf("pushed=%d resid=%v", len(pushed), resid)
	}
	// OR trees are never pushed.
	p = expr.OrP(expr.Le(expr.Col("d"), expr.Int(5)), expr.Ge(expr.Col("a"), expr.Int(1)))
	pushed, resid, refuted = splitPushdown(p, seg, &Options{})
	if len(pushed) != 0 || resid == nil || refuted {
		t.Fatalf("OR pushed=%d", len(pushed))
	}
	// String equality on a dictionary column now pushes into code space,
	// so this conjunction is fully pushed too — one packed conjunct, one
	// dict-domain conjunct.
	p = expr.AndP(expr.Le(expr.Col("d"), expr.Int(5)), expr.StrEq("g", "k00"))
	pushed, resid, refuted = splitPushdown(p, seg, &Options{})
	if len(pushed) != 2 || resid != nil {
		t.Fatalf("dict: pushed=%d resid=%v", len(pushed), resid)
	}
	if got := pushed[1].strategyLabel(); got != "dict-eq" {
		t.Fatalf("dict strategy = %q, want dict-eq", got)
	}
	// With the dict domain disabled the string predicate stays residual.
	pushed, resid, refuted = splitPushdown(p, seg, &Options{DisableDictDomain: true})
	if len(pushed) != 1 || resid == nil {
		t.Fatalf("dict disabled: pushed=%d resid=%v", len(pushed), resid)
	}
	// Column-vs-column comparisons are residual.
	p = expr.Lt(expr.Col("a"), expr.Col("b"))
	pushed, resid, refuted = splitPushdown(p, seg, &Options{})
	if len(pushed) != 0 || resid == nil || refuted {
		t.Fatal("col-vs-col pushed")
	}
	// A conjunct metadata proves true drops out; one it proves false
	// refutes the filter whatever else it holds.
	p = expr.AndP(expr.Le(expr.Col("d"), expr.Int(1000)), expr.Lt(expr.Col("d"), expr.Int(50)))
	pushed, resid, refuted = splitPushdown(p, seg, &Options{})
	if len(pushed) != 1 || resid != nil || refuted {
		t.Fatalf("true conjunct: pushed=%d resid=%v refuted=%v", len(pushed), resid, refuted)
	}
	p = expr.AndP(expr.Lt(expr.Col("a"), expr.Col("b")), expr.Gt(expr.Col("d"), expr.Int(1000)))
	pushed, resid, refuted = splitPushdown(p, seg, &Options{})
	if len(pushed) != 0 || resid != nil || !refuted {
		t.Fatalf("false conjunct: pushed=%d resid=%v refuted=%v", len(pushed), resid, refuted)
	}
}

// Segment metadata reaches one verdict on a filter, however the filter
// spells it: an OR of two refuted leaves, a refuted comparison over
// arithmetic and a dictionary miss ORed with a refuted comparison all
// eliminate every segment before a batch is read, exactly as a refuted
// top-level conjunct does. A conjunct metadata proves true is dropped, not
// pushed.
func TestRefutedFilterEliminates(t *testing.T) {
	tbl := mustTable(t, 16384, 4096, func(i int) (string, int64) {
		return fmt.Sprintf("k%d", i%3), int64(i * 7919 % 100) // every segment holds v in [0, 99]
	})
	v := expr.Col("v")
	segments := len(tbl.Segments())
	for _, f := range []expr.Pred{
		expr.OrP(expr.Gt(v, expr.Int(1000)), expr.Lt(v, expr.Int(-5))),
		expr.Gt(expr.Add(v, expr.Int(1)), expr.Int(1000)),
		expr.OrP(expr.StrEq("g", "nope"), expr.Gt(v, expr.Int(1000))),
	} {
		q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(v)}, Filter: f}
		plans, err := Explain(tbl, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			if !p.Eliminated {
				t.Errorf("%s: segment %d not eliminated: %+v", f, p.Segment, p)
			}
		}
		got, st := runTraced(t, tbl, q, Options{}, nil)
		if st.SegmentsEliminated != segments || st.SegmentsScanned != 0 || st.Batches != 0 {
			t.Errorf("%s: %d of %d segments eliminated, %d scanned, %d batches", f, st.SegmentsEliminated, segments, st.SegmentsScanned, st.Batches)
		}
		want, err := RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, f.String(), got, want)
	}

	q := &Query{Aggregates: []Aggregate{CountStar()}, Filter: expr.AndP(expr.Le(v, expr.Int(1000)), expr.Lt(v, expr.Int(50)))}
	plans, err := Explain(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.PushedFilters != 1 || p.PackedFilters != 1 || !slices.Equal(p.PushedDomains, []string{"packed"}) {
			t.Errorf("%s: segment %d pushes %d (%d packed) %v, want the one live conjunct", q.Filter, p.Segment, p.PushedFilters, p.PackedFilters, p.PushedDomains)
		}
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q.Filter.String(), got, want)
}

// A filter metadata proves true for a segment plans like no filter: no
// special group is reserved, and the strategy is the unfiltered query's.
func TestProvenFilterPlansUnfiltered(t *testing.T) {
	tbl := mustTable(t, 16384, 4096, func(i int) (string, int64) {
		return fmt.Sprintf("k%d", i%3), int64(i * 7919 % 100)
	})
	v := expr.Col("v")
	base := Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar(), SumOf(v)}}
	unfiltered, err := Explain(tbl, &base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := base
	q.Filter = expr.AndP(expr.AndP(expr.Ge(v, expr.Int(0)), expr.Le(v, expr.Int(1000))), expr.StrInSet("g", "k0", "k1", "k2"))
	plans, err := Explain(tbl, &q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p.SpecialGroup || p.Strategy != unfiltered[i].Strategy || p.PushedFilters != 0 || p.ResidualFilter {
			t.Errorf("segment %d: special %v, strategy %s (unfiltered %s), %d pushed, residual %v",
				i, p.SpecialGroup, p.Strategy, unfiltered[i].Strategy, p.PushedFilters, p.ResidualFilter)
		}
	}
	got, err := Run(tbl, &q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunNaive(tbl, &q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q.Filter.String(), got, want)
}

// TestLastConjunctCounts pins where a batch's kept rows come from. Three
// packed conjuncts run on every batch but one, a <= 600, b >= 20 and
// z <= 150, and the zone maps prove the last of them, on z, true for every
// even batch: there b is the last conjunct to run, and on the odd batches
// z is. Only the last conjunct to run may count the rows it keeps — any
// other one counts rows a later one rejects — and only when nothing
// changes the mask after it. The query, a one-group COUNT(*) whose count is
// the kept rows themselves, runs plain, behind a residual and with deleted
// rows, each with the zone maps on and off, and every answer must equal
// RunNaive's.
func TestLastConjunctCounts(t *testing.T) {
	const segRows = 4 * colstore.BatchRows
	rng := rand.New(rand.NewSource(113))
	n := 2*segRows + 1000
	ints := map[string][]int64{"a": make([]int64, n), "b": make([]int64, n), "z": make([]int64, n), "v": make([]int64, n)}
	for i := 0; i < n; i++ {
		ints["a"][i] = rng.Int63n(1 << 10)
		ints["b"][i] = rng.Int63n(1 << 6)
		ints["z"][i] = rng.Int63n(100)
		if i/colstore.BatchRows%2 == 1 {
			ints["z"][i] = rng.Int63n(1 << 8)
		}
		ints["v"][i] = rng.Int63n(1 << 20)
	}
	tbl, err := table.New(table.Schema{
		{Name: "a", Type: table.Int64}, {Name: "b", Type: table.Int64},
		{Name: "z", Type: table.Int64}, {Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendColumns(ints, nil); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	pushed := expr.AndP(expr.AndP(expr.Le(expr.Col("a"), expr.Int(600)), expr.Ge(expr.Col("b"), expr.Int(20))),
		expr.Le(expr.Col("z"), expr.Int(150)))
	filters := map[string]expr.Pred{
		"pushed":   pushed,
		"residual": expr.AndP(pushed, expr.Lt(expr.Add(expr.Col("a"), expr.Col("b")), expr.Int(500))),
	}
	check := func(label string) {
		t.Helper()
		for name, f := range filters {
			q := &Query{Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))}, Filter: f}
			if name == "pushed" {
				plans, err := Explain(tbl, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := plans[0].PushedDomains; len(d) != 3 || d[0] != "packed" || d[1] != "packed" || d[2] != "packed" {
					t.Fatalf("pushed domains %v, want three packed", d)
				}
			}
			want, err := RunNaive(tbl, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, zones := range []bool{true, false} {
				got, err := Run(tbl, q, Options{DisableZoneMaps: !zones})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("%s, %s, zone maps %v", label, name, zones), got, want)
			}
		}
	}
	check("plain")
	for _, row := range []int{3, colstore.BatchRows + 7, 5 * colstore.BatchRows, 2*segRows + 999} {
		if err := tbl.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	check("deleted rows")
}
