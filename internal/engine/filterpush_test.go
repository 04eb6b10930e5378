package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bipie/internal/expr"
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
		got, err := Run(tbl, q, Options{DisableElimination: true})
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
// against every sub-zone of the range), as the pushdown's plan op, as the
// segment-elimination verdict, and as the residual program's plan-time
// verdict for the comparison in either operand order (where it is a
// difference node against a threshold, or two int64 sides when the
// difference could wrap); and a live outcome's inclusive threshold must
// select the very rows the original comparison does, as must the residual's
// mask.
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
				if elim := canEliminate(seg, pred); elim != (want == pushNone) {
					t.Errorf("%s: canEliminate = %v, brute force rejects %d of %d", label, elim, size-kept, size)
				}
				pp, ok := pushCmp(pred, seg, &Options{})
				if !ok {
					t.Fatalf("%s: comparison did not push", label)
				}
				if pp.planOp() != got {
					t.Errorf("%s: pushdown planned op %d, clamp says %d", label, pp.planOp(), got)
				}
				mirrored := expr.Cmp{Op: op.Mirror(), L: expr.Int(v), R: expr.Col("v")}
				for _, resid := range []expr.Cmp{pred, mirrored} {
					rp, err := compileResidual(resid, seg, false)
					if err != nil {
						t.Fatalf("%s: residual %s: %v", label, resid, err)
					}
					rgot := pushLE // live
					switch {
					case rp == nil:
						rgot = pushAll
					case rp.root.kind == maskNone:
						rgot = pushNone
					}
					if !agrees(rgot, want) || rgot.constant() != got.constant() {
						t.Errorf("%s: residual %s folds to %d, brute force %d", label, resid, rgot, want)
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
	pushed, resid := splitPushdown(p, seg, &Options{})
	if len(pushed) != 2 || resid != nil {
		t.Fatalf("pushed=%d resid=%v", len(pushed), resid)
	}
	// OR trees are never pushed.
	p = expr.OrP(expr.Le(expr.Col("d"), expr.Int(5)), expr.Ge(expr.Col("a"), expr.Int(1)))
	pushed, resid = splitPushdown(p, seg, &Options{})
	if len(pushed) != 0 || resid == nil {
		t.Fatalf("OR pushed=%d", len(pushed))
	}
	// String equality on a dictionary column now pushes into code space,
	// so this conjunction is fully pushed too — one packed conjunct, one
	// dict-domain conjunct.
	p = expr.AndP(expr.Le(expr.Col("d"), expr.Int(5)), expr.StrEq("g", "k00"))
	pushed, resid = splitPushdown(p, seg, &Options{})
	if len(pushed) != 2 || resid != nil {
		t.Fatalf("dict: pushed=%d resid=%v", len(pushed), resid)
	}
	if got := pushed[1].strategyLabel(); got != "dict-eq" {
		t.Fatalf("dict strategy = %q, want dict-eq", got)
	}
	// With the dict domain disabled the string predicate stays residual.
	pushed, resid = splitPushdown(p, seg, &Options{DisableDictDomain: true})
	if len(pushed) != 1 || resid == nil {
		t.Fatalf("dict disabled: pushed=%d resid=%v", len(pushed), resid)
	}
	// Column-vs-column comparisons are residual.
	p = expr.Lt(expr.Col("a"), expr.Col("b"))
	pushed, resid = splitPushdown(p, seg, &Options{})
	if len(pushed) != 0 || resid == nil {
		t.Fatal("col-vs-col pushed")
	}
}
