package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// sumExprCase is one seeded scenario for the sum-expression program: a
// table whose columns land on every integer encoding with ranges pinned at
// the word edges, and a query of random aggregate expressions over them.
type sumExprCase struct {
	tbl *table.Table
	q   *Query
	// gathered marks a one-group query whose every SUM is a packed column
	// or a product of two: its Reduce plans sum gathered batches straight
	// off the packed words (segPlan.gathered).
	gathered bool
}

// edgeSpans are value-range widths sitting on the lane boundaries: the last
// value of a word and the first of the next.
var edgeSpans = []int64{1, 9, 255, 256, 65535, 65536, 1<<32 - 1, 1 << 32}

// edgeRefs are frames of reference: none, small, negative, large, and the
// two that push ref+offset to the int64 limits.
var edgeRefs = []int64{0, 1, -7, 90000, -1 << 40, 1 << 40}

func newSumExprCase(seed int64, depth int) (*sumExprCase, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 700 + rng.Intn(2500)
	names := []string{"a", "b", "c", "d", "e"}
	schema := table.Schema{{Name: "g", Type: table.String}, {Name: "f", Type: table.Int64}}
	for _, name := range names {
		schema = append(schema, table.Column{Name: name, Type: table.Int64})
	}
	tbl, err := table.New(schema, table.WithSegmentRows(1024))
	if err != nil {
		return nil, err
	}
	ints := map[string][]int64{"f": make([]int64, n)}
	strs := map[string][]string{"g": make([]string, n)}
	card := 1 + rng.Intn(5)
	for i := 0; i < n; i++ {
		strs["g"][i] = fmt.Sprintf("k%d", rng.Intn(card))
		ints["f"][i] = rng.Int63n(100)
	}
	for _, name := range names {
		ints[name] = sumExprColumn(rng, n)
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		return nil, err
	}
	if rng.Intn(3) > 0 {
		tbl.Flush() // otherwise the tail stays in the mutable region
	}

	q := &Query{Aggregates: []Aggregate{CountStar()}}
	if rng.Intn(4) > 0 {
		q.GroupBy = []string{"g"}
	}
	if rng.Intn(4) > 0 {
		q.Filter = expr.Lt(expr.Col("f"), expr.Int([]int64{3, 30, 70, 97}[rng.Intn(4)]))
	}
	kinds := []AggKind{Sum, Sum, Sum, Avg, Min, Max}
	for i, nAggs := 0, 2+rng.Intn(4); i < nAggs; i++ {
		e := sumExprTree(rng, names, 1+rng.Intn(depth))
		q.Aggregates = append(q.Aggregates, Aggregate{Kind: kinds[rng.Intn(len(kinds))], Arg: e})
	}
	// Repeat one input under another aggregate so slots are shared.
	q.Aggregates = append(q.Aggregates, Aggregate{Kind: Avg, Arg: q.Aggregates[1].Arg})
	return &sumExprCase{tbl: tbl, q: q}, nil
}

// sumExprColumn draws one column in a shape that steers the encoder:
// uniform values over an edge range (bit-pack, with the range's ends
// present), long runs (RLE), or a sorted ramp (delta) — some of them up
// against the int64 limits so wrapping is exercised.
func sumExprColumn(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	switch rng.Intn(8) {
	case 0: // RLE: long runs of a few, possibly negative, values
		v := rng.Int63n(40) - 8
		for i := range vals {
			if i%(50+rng.Intn(200)) == 0 {
				v = rng.Int63n(40) - 8
			}
			vals[i] = v
		}
	case 1: // delta: sorted with small steps from a large base, or from a small one (a narrow range)
		v := []int64{1 << 41, 0}[rng.Intn(2)] + rng.Int63n(1000)
		for i := range vals {
			v += rng.Int63n(4)
			vals[i] = v
		}
	case 2: // bit-pack at the top of int64: ref + offset reaches MaxInt64
		for i := range vals {
			vals[i] = math.MaxInt64 - rng.Int63n(1000)
		}
		vals[0], vals[n-1] = math.MaxInt64, math.MaxInt64-999
	case 3: // and at the bottom
		for i := range vals {
			vals[i] = math.MinInt64 + rng.Int63n(1000)
		}
		vals[0] = math.MinInt64
	default:
		ref, span := edgeRefs[rng.Intn(len(edgeRefs))], edgeSpans[rng.Intn(len(edgeSpans))]
		for i := range vals {
			vals[i] = ref + rng.Int63n(span+1)
		}
		vals[0], vals[n-1] = ref, ref+span
	}
	return vals
}

func sumExprTree(rng *rand.Rand, names []string, depth int) expr.Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(4) == 0 {
			return expr.Int([]int64{0, 1, -1, 2, 100, -3, 255, 257, 1 << 31, math.MinInt64}[rng.Intn(10)])
		}
		return expr.Col(names[rng.Intn(len(names))])
	}
	l, r := sumExprTree(rng, names, depth-1), sumExprTree(rng, names, depth-1)
	switch rng.Intn(7) {
	case 0, 1:
		return expr.Add(l, r)
	case 2:
		return expr.Sub(l, r)
	case 3, 4:
		return expr.Mul(l, r)
	case 5:
		return expr.Div(l, r)
	default:
		return expr.Negate(l)
	}
}

// check runs the case through Prepare under every forced selection ×
// aggregation pairing and the unforced plan, each with the narrow lanes and
// with the all-int64 ablation, and holds every result to RunNaive.
func (c *sumExprCase) check(t *testing.T) {
	t.Helper()
	want, err := RunNaive(c.tbl, c.q)
	if err != nil {
		t.Fatal(err)
	}
	combos := []Options{{}}
	for _, m := range []sel.Method{sel.MethodGather, sel.MethodCompact, sel.MethodSpecialGroup} {
		for _, s := range []agg.Strategy{agg.StrategyScalar, agg.StrategySortBased, agg.StrategyInRegister, agg.StrategyMultiAggregate, agg.StrategyReduce} {
			combos = append(combos, Options{ForceSelection: ForceSel(m), ForceAggregation: ForceAgg(s)})
		}
	}
	for _, opts := range combos {
		for _, wide := range []bool{false, true} {
			label := fmt.Sprintf("%s wide=%v", describeForced(opts), wide)
			p, err := prepare(c.tbl, c.q, opts, wide)
			if err != nil {
				// The §2.1 overflow proof may refuse a plain column's
				// sum; nothing else may fail.
				if strings.Contains(err.Error(), "cannot prove") {
					return
				}
				t.Fatalf("%s: %v", label, err)
			}
			got, st, err := p.RunTraced(context.Background(), nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameResult(t, label+": "+describeQuery(c.q), got, want)
			assertLaneOrder(t, label, p)
			assertMaskedReduce(t, label, p, opts, st)
			if c.gathered {
				assertGatheredSums(t, label, p, opts, st)
			}
		}
	}
}

// assertGatheredSums holds a gathered case to its path: every Reduce plan
// sums gathered batches straight off the packed words, and a forced gather
// over such plans runs on some batch.
func assertGatheredSums(t *testing.T, label string, p *Prepared, opts Options, st ScanStats) {
	t.Helper()
	reduce := false
	for _, sp := range p.plans {
		if sp.eliminated || sp.strategy != agg.StrategyReduce {
			continue
		}
		if reduce = true; sp.gathered == nil {
			t.Fatalf("%s: a Reduce plan of a gathered case has no gathered sums", label)
		}
	}
	if f := opts.ForceSelection; reduce && f != nil && *f == sel.MethodGather && st.Batches > st.EmptyBatches && st.Gather == 0 {
		t.Fatalf("%s: forced gather ran no gathered batch (%+v)", label, st)
	}
}

// assertMaskedReduce holds a scan whose plans are all one-group (Reduce)
// to what a forced compaction or special group means there: the special
// group is the mask itself, so every batch that keeps a row sums under it
// (ScanStats.SpecialGroup) and none compacts.
func assertMaskedReduce(t *testing.T, label string, p *Prepared, opts Options, st ScanStats) {
	t.Helper()
	if f := opts.ForceSelection; f == nil || *f == sel.MethodGather {
		return
	}
	for _, sp := range p.plans {
		if !sp.eliminated && sp.strategy != agg.StrategyReduce {
			return
		}
	}
	if st.Gather != 0 || st.Compact != 0 || st.SpecialGroup != st.Batches-st.EmptyBatches {
		t.Fatalf("%s: Reduce plans ran %d batches: %d gather, %d compact, %d special group, %d empty",
			label, st.Batches, st.Gather, st.Compact, st.SpecialGroup, st.EmptyBatches)
	}
}

// assertLaneOrder holds every program p compiled — aggregate inputs and
// residual predicate alike — to the lane order the kernels exist for: an
// operator no narrower than its operands, a commutative one's left operand
// no narrower than its right, literals right (lane 0).
func assertLaneOrder(t *testing.T, label string, p *Prepared) {
	t.Helper()
	for _, sp := range p.plans {
		progs := []*expr.SumProgram{sp.prog}
		if sp.residual != nil {
			progs = append(progs, sp.residual.prog)
		}
		for _, prog := range progs {
			lane := func(t expr.SumTerm) int {
				if t.IsConst() {
					return 0
				}
				return prog.Node(t.Node).Word
			}
			for i := 0; prog != nil && i < prog.Len(); i++ {
				nd := prog.Node(i)
				if nd.Op == expr.SumLeafPacked || nd.Op == expr.SumLeafDecoded {
					continue
				}
				if l, r := lane(nd.L), lane(nd.R); l > nd.Word || r > nd.Word || nd.Op != expr.SumDiv && l < max(r, 1) {
					t.Fatalf("%s: node %d %+v in lane %d reads lanes %d and %d", label, i, nd, nd.Word, l, r)
				}
			}
		}
	}
}

// widenedLeaves records the encoding of every RLE or delta leaf of bp whose
// range is narrow and that an operator reads: the shape where the operator
// takes the leaf's 8-byte lane although its own range would fit a narrower
// one.
func widenedLeaves(bp *boundProg, seen map[encoding.Kind]bool) {
	for i := 0; i < bp.prog.Len(); i++ {
		nd := bp.prog.Node(i)
		if nd.Op == expr.SumLeafPacked || nd.Op == expr.SumLeafDecoded || nd.Lo < 0 || nd.Hi > math.MaxUint32 {
			continue
		}
		for _, t := range [2]expr.SumTerm{nd.L, nd.R} {
			if t.IsConst() {
				continue
			}
			if leaf := bp.prog.Node(t.Node); leaf.Op == expr.SumLeafDecoded && leaf.Lo >= 0 && leaf.Hi <= math.MaxUint32 {
				seen[bp.progLeaves[t.Node].col.Kind()] = true
			}
		}
	}
}

func describeForced(o Options) string {
	if o.ForceSelection == nil {
		return "unforced"
	}
	return fmt.Sprintf("%v/%v", *o.ForceSelection, *o.ForceAggregation)
}

func describeQuery(q *Query) string {
	var parts []string
	for _, a := range q.Aggregates {
		if a.Arg != nil {
			parts = append(parts, fmt.Sprintf("%d:%s", a.Kind, a.Arg))
		}
	}
	return fmt.Sprintf("%s group by %v where %v", strings.Join(parts, ", "), q.GroupBy, q.Filter)
}

// productShapes are queries on both sides of the multi-aggregate cell
// walk's rule (cellPlan) over a newProductCase table, each with the SUM
// inputs the walk computes from its cells. Walked: Q1's chained pair with
// avg(d) (a summed factor), the serving mix's Q1 (a base no slot sums), a
// product the residual predicate computes too (its program is its own), a
// product on a materialized operator node, a negated chain, a chained pair
// on a base of its own, and a product beside its summed base. Not walked:
// a product also under MIN, a 2-byte factor, a 4-byte one, RLE and delta
// bases, Q1 beside one more 4-byte sum, a 2-byte sum beside a product, two
// factors wider than a key byte together, and a factor another node reads.
var productShapes = []struct {
	aggs   func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate
	filter func(p, d expr.Expr) expr.Pred
	walked []bool
}{
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		dp := expr.Mul(p, expr.Sub(expr.Int(100), d))
		return []Aggregate{SumOf(p), SumOf(dp), SumOf(expr.Mul(dp, expr.Add(expr.Int(100), t))), AvgOf(d), CountStar()}
	}, walked: []bool{false, true, true, true}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(t), SumOf(expr.Mul(p, expr.Sub(expr.Int(100), d))), AvgOf(d), CountStar()}
	}, walked: []bool{false, true, true}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, d)), SumOf(d)}
	},
		filter: func(p, d expr.Expr) expr.Pred { return expr.Ge(expr.Mul(p, d), expr.Int(1<<23)) },
		walked: []bool{true, true}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		qd := expr.Mul(q, d)
		return []Aggregate{MinOf(qd), SumOf(expr.Mul(expr.Add(qd, expr.Int(1)), t)), SumOf(d)}
	}, walked: []bool{false, true, false}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		dp := expr.Mul(p, expr.Sub(expr.Int(100), d))
		return []Aggregate{SumOf(p), SumOf(dp), SumOf(expr.Mul(expr.Negate(dp), expr.Add(expr.Int(100), t)))}
	}, walked: []bool{false, true, true}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		dp := expr.Mul(p, expr.Sub(expr.Int(100), d))
		return []Aggregate{SumOf(dp), SumOf(expr.Mul(dp, expr.Add(expr.Int(100), t)))}
	}, walked: []bool{true, true}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, d)), SumOf(p)}
	},
		walked: []bool{true, false}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, d)), MinOf(expr.Mul(p, d)), SumOf(d)}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, w)), SumOf(d)}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, q)), SumOf(d)}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(r, d)), SumOf(d)}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(e, d)), SumOf(d)}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		dp := expr.Mul(p, expr.Sub(expr.Int(100), d))
		return []Aggregate{SumOf(p), SumOf(dp), SumOf(expr.Mul(dp, expr.Add(expr.Int(100), t))), SumOf(q)}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, expr.Sub(expr.Int(100), d))), SumOf(w), SumOf(d)}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, d)), SumOf(expr.Mul(p, f))}
	}},
	{aggs: func(p, q, d, t, w, r, e, f expr.Expr) []Aggregate {
		return []Aggregate{SumOf(expr.Mul(p, d)), SumOf(expr.Mul(d, t))}
	}},
}

// newProductCase builds productShapes[shape] over a Q1-like table: p a
// bit-packed 4-byte base (its frame of reference, negative or not, drawn
// from seed), q another, d and t 1-byte factors, w a 2-byte one, r an
// RLE-encoded column and e a delta-encoded one.
func newProductCase(seed int64, shape int) (*sumExprCase, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 1500 + rng.Intn(2000)
	cols := map[string][]int64{}
	names := []string{"f", "p", "q", "d", "t", "w", "r", "e"}
	schema := table.Schema{{Name: "g", Type: table.String}}
	for _, name := range names {
		schema = append(schema, table.Column{Name: name, Type: table.Int64})
		cols[name] = make([]int64, n)
	}
	tbl, err := table.New(schema, table.WithSegmentRows(1024))
	if err != nil {
		return nil, err
	}
	ref := []int64{0, 90000, -7, 1 << 30}[rng.Intn(4)]
	card := 1 + rng.Intn(4)
	strs := map[string][]string{"g": make([]string, n)}
	for i := 0; i < n; i++ {
		strs["g"][i] = fmt.Sprintf("k%d", rng.Intn(card))
		cols["f"][i] = rng.Int63n(100)
		cols["p"][i] = ref + rng.Int63n(1<<22)
		cols["q"][i] = rng.Int63n(1 << 20)
		cols["d"][i] = rng.Int63n(11)
		cols["t"][i] = rng.Int63n(9)
		cols["w"][i] = rng.Int63n(60000)
		cols["r"][i] = int64(i/300%3) - 1
		cols["e"][i] = 1<<41 + int64(i)*2
	}
	if err := tbl.AppendColumns(cols, strs); err != nil {
		return nil, err
	}
	if rng.Intn(3) > 0 {
		tbl.Flush()
	}
	col := expr.Col
	sh := productShapes[shape]
	q := &Query{Aggregates: sh.aggs(col("p"), col("q"), col("d"), col("t"), col("w"), col("r"), col("e"), col("f"))}
	if rng.Intn(4) > 0 {
		q.GroupBy = []string{"g"}
	}
	if sh.filter != nil {
		q.Filter = sh.filter(col("p"), col("d"))
	} else if rng.Intn(2) == 0 {
		q.Filter = expr.Lt(col("f"), expr.Int(70))
	}
	return &sumExprCase{tbl: tbl, q: q}, nil
}

// newGatheredCase builds a one-group query whose every SUM is a packed
// column or a product of two, over columns with frames of reference from
// edgeRefs: each factor ±col, ±col + k or k - col, so the products' terms
// carry negations and constants of both signs, and the sign of a factor
// with no constant moves out of its product.
func newGatheredCase(seed int64) (*sumExprCase, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 1500 + rng.Intn(3000)
	names := []string{"f", "p", "q", "d", "w"}
	spans := map[string]int64{"f": 100, "p": 1 << 22, "q": 1 << 12, "d": 11, "w": 60000}
	schema := table.Schema{}
	cols, refs := map[string][]int64{}, map[string]int64{}
	for _, name := range names {
		schema = append(schema, table.Column{Name: name, Type: table.Int64})
		cols[name] = make([]int64, n)
		refs[name] = edgeRefs[rng.Intn(4)] // the refs whose products stay clear of int64's edge
		for i := range cols[name] {
			cols[name][i] = refs[name] + rng.Int63n(spans[name])
		}
	}
	tbl, err := table.New(schema, table.WithSegmentRows(1024+rng.Intn(3)*1024))
	if err != nil {
		return nil, err
	}
	if err := tbl.AppendColumns(cols, nil); err != nil {
		return nil, err
	}
	if rng.Intn(3) > 0 {
		tbl.Flush()
	}
	factor := func() expr.Expr {
		c, k := expr.Col(names[1+rng.Intn(len(names)-1)]), expr.Int(rng.Int63n(201)-100)
		switch rng.Intn(4) {
		case 0:
			return c
		case 1:
			return expr.Negate(c)
		case 2:
			return expr.Add(c, k)
		default:
			return expr.Sub(k, c)
		}
	}
	q := &Query{Aggregates: []Aggregate{CountStar()}}
	for range 1 + rng.Intn(3) {
		a := SumOf(expr.Col(names[1+rng.Intn(len(names)-1)]))
		if rng.Intn(3) > 0 {
			a = SumOf(expr.Mul(factor(), factor()))
		}
		q.Aggregates = append(q.Aggregates, a)
	}
	if rng.Intn(4) > 0 {
		q.Filter = expr.Lt(expr.Col("f"), expr.Int(refs["f"]+rng.Int63n(100)))
	}
	return &sumExprCase{tbl: tbl, q: q, gathered: true}, nil
}

// gatheredShape and up select FuzzSumExpr's gathered cases.
const gatheredShape = 128

// FuzzSumExpr drives the typed sum-expression program — interval analysis,
// lane choice, slot and sub-expression sharing, every load mode and
// strategy that consumes its vectors — with seeded random tables and
// expression trees against the row-at-a-time oracle. A nonzero shape
// below gatheredShape instead builds productShapes[shape-1] (mod their
// count): the product words the multi-aggregate walk computes, and their
// near misses; from gatheredShape on it builds a gathered case
// (newGatheredCase), whose forced gathers sum off the packed words.
func FuzzSumExpr(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(seed%4), uint8(0))
	}
	for shape := range productShapes {
		for seed := int64(0); seed < 4; seed++ {
			f.Add(seed, uint8(0), uint8(1+shape))
		}
	}
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(0), uint8(gatheredShape))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth, shape uint8) {
		c, err := newSumExprCase(seed, 1+int(depth%4))
		switch {
		case shape >= gatheredShape:
			c, err = newGatheredCase(seed)
		case shape > 0:
			c, err = newProductCase(seed, int(shape-1)%len(productShapes))
		}
		if err != nil {
			t.Fatal(err)
		}
		c.check(t)
	})
}

// Each product shape lands on its side of the rule wherever the
// multi-aggregate walk runs: forced, and unforced when the chooser picks
// it — Q1's chain included, whatever the selection method. Explain shows
// the side: a cell walk marks its computed sums and names its key, the
// read walk neither.
func TestWalkedProductsFollowTheRule(t *testing.T) {
	for shape, sh := range productShapes {
		for seed := int64(0); seed < 4; seed++ {
			c, err := newProductCase(seed, shape)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{}, {ForceAggregation: ForceAgg(agg.StrategyMultiAggregate)}} {
				plans, err := Explain(c.tbl, c.q, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, pl := range plans {
					if pl.Eliminated {
						continue
					}
					if pl.Strategy != "Multi" {
						if opts.ForceAggregation != nil {
							t.Errorf("shape %d seed %d segment %d: forced multi-aggregate planned %s", shape, seed, pl.Segment, pl.Strategy)
						}
						continue
					}
					want := sh.walked
					if slices.Index(want, true) < 0 {
						want = nil
					}
					if !reflect.DeepEqual(pl.WalkedSums, want) || (pl.CellKey != nil) != (want != nil) {
						t.Errorf("shape %d seed %d %s segment %d: walked %v keyed by %v, want %v (%s)", shape, seed, describeForced(opts), pl.Segment, pl.WalkedSums, pl.CellKey, want, describeQuery(c.q))
					}
				}
			}
		}
	}
}

// The generator must actually reach what the fuzz target claims to cover:
// all three integer encodings, and plans that mix narrow and int64 lanes.
func TestSumExprCasesCoverEncodingsAndLanes(t *testing.T) {
	kinds, widened := map[encoding.Kind]bool{}, map[encoding.Kind]bool{}
	words := map[int]bool{}
	for seed := int64(0); seed < 24; seed++ {
		c, err := newSumExprCase(seed, 1+int(seed%4))
		if err != nil {
			t.Fatal(err)
		}
		plans, err := Explain(c.tbl, c.q, Options{})
		if err != nil {
			continue // the overflow proof refused a plain column
		}
		p, err := Prepare(c.tbl, c.q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range c.tbl.Segments() {
			for _, name := range []string{"a", "b", "c", "d", "e"} {
				col, err := seg.IntCol(name)
				if err != nil {
					t.Fatal(err)
				}
				kinds[col.Kind()] = true
			}
			sp, err := p.planFor(seg)
			if err != nil {
				t.Fatal(err)
			}
			widenedLeaves(&sp.boundProg, widened)
		}
		for _, pl := range plans {
			for _, w := range pl.SumWordSizes {
				words[w] = true
			}
		}
	}
	for _, k := range []encoding.Kind{encoding.KindBitPack, encoding.KindRLE, encoding.KindDelta} {
		if !kinds[k] {
			t.Errorf("no generated column is %v-encoded", k)
		}
	}
	for _, k := range []encoding.Kind{encoding.KindRLE, encoding.KindDelta} {
		if !widened[k] {
			t.Errorf("no generated operator reads a narrow %v-encoded leaf", k)
		}
	}
	for _, w := range []int{1, 2, 4, 8} {
		if !words[w] {
			t.Errorf("no generated plan has a %d-byte sum input", w)
		}
	}
}

func sumWords(t *testing.T, tbl *table.Table, q *Query) []int {
	t.Helper()
	plans, err := Explain(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plans[0].SumWordSizes
}

// Structurally equal inputs share one slot whatever aggregate they sit
// under, and each slot's word comes from the range analysis, not from the
// constant 8.
func TestSumSlotsDedupeAndNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := buildTable(t, rng, 3000, 4, 3000) // a,d < 100; b < 2^14; c in ±2^29
	ab := expr.Mul(expr.Col("a"), expr.Col("b"))
	for _, c := range []struct {
		aggs []Aggregate
		want []int
	}{
		{[]Aggregate{SumOf(ab), AvgOf(ab)}, []int{4}},
		{[]Aggregate{SumOf(ab), AvgOf(expr.Mul(expr.Col("b"), expr.Col("a"))), CountStar()}, []int{4}},
		{[]Aggregate{SumOf(expr.Col("a")), AvgOf(expr.Col("a")), SumOf(expr.Add(expr.Col("a"), expr.Int(0)))}, []int{1}},
		{[]Aggregate{SumOf(expr.Col("a")), MinOf(expr.Col("a")), MaxOf(expr.Col("a"))}, []int{1, 1, 1}},
		{[]Aggregate{SumOf(expr.Mul(expr.Col("a"), expr.Col("d"))), SumOf(expr.Mul(ab, expr.Col("d")))}, []int{2, 4}},
		{[]Aggregate{SumOf(expr.Mul(expr.Col("a"), expr.Col("c"))), SumOf(expr.Int(7))}, []int{8, 0}},
		{[]Aggregate{SumOf(expr.Div(expr.Col("b"), expr.Col("a")))}, []int{8}},
	} {
		if got := sumWords(t, tbl, &Query{GroupBy: []string{"g"}, Aggregates: c.aggs}); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: sum words %v, want %v", (&Query{Aggregates: c.aggs}).aggNames(), got, c.want)
		}
	}
}

// The gather/compact crossover is priced at the widest column the value
// paths actually read — the columns under an expression included, and
// nothing at all for a count.
func TestMaxBitsFromProgramColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tbl := buildTable(t, rng, 3000, 4, 3000)
	width := func(name string) uint8 {
		col, err := tbl.Segments()[0].IntCol(name)
		if err != nil {
			t.Fatal(err)
		}
		return col.(*encoding.BitPackColumn).Width()
	}
	filter := expr.Lt(expr.Col("d"), expr.Int(50))
	for _, c := range []struct {
		agg  Aggregate
		want uint8
	}{
		{SumOf(expr.Mul(expr.Col("a"), expr.Col("b"))), width("b")},
		{SumOf(expr.Mul(expr.Col("a"), expr.Col("c"))), width("c")},
		{SumOf(expr.Col("a")), width("a")},
		{CountStar(), 0},
	} {
		p, err := Prepare(tbl, &Query{Aggregates: []Aggregate{c.agg}, Filter: filter}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := p.planFor(tbl.Segments()[0])
		if err != nil {
			t.Fatal(err)
		}
		if sp.maxBits != c.want {
			t.Errorf("%s: maxBits %d, want %d", c.agg.Name, sp.maxBits, c.want)
		}
		if want := sel.Crossover(c.want); sp.selCrossover != want {
			t.Errorf("%s: crossover %v, want %v", c.agg.Name, sp.selCrossover, want)
		}
	}
}
