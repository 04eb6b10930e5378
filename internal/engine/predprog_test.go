package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/costmodel"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/table"
)

// predCase is one seeded scenario for the residual predicate program: a
// table whose integer columns land on every encoding with ranges pinned at
// the word edges, a narrow and a wide dictionary, and a random predicate
// tree over them.
type predCase struct {
	tbl *table.Table
	q   *Query
}

var predInts = []string{"a", "b", "c", "d"}

func newPredCase(seed int64, depth int, lc, rc int64) (*predCase, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 700 + rng.Intn(2500)
	schema := table.Schema{
		{Name: "g", Type: table.String}, {Name: "s", Type: table.String}, {Name: "w", Type: table.String},
		{Name: "f", Type: table.Int64},
	}
	for _, name := range predInts {
		schema = append(schema, table.Column{Name: name, Type: table.Int64})
	}
	tbl, err := table.New(schema, table.WithSegmentRows(1024))
	if err != nil {
		return nil, err
	}
	ints := map[string][]int64{"f": make([]int64, n)}
	strs := map[string][]string{"g": make([]string, n), "s": make([]string, n), "w": make([]string, n)}
	for i := 0; i < n; i++ {
		strs["g"][i] = fmt.Sprintf("k%d", rng.Intn(3))
		strs["s"][i] = fmt.Sprintf("s%02d", rng.Intn(40)) // a byte of ids
		strs["w"][i] = fmt.Sprintf("w%03d", i%300)        // 300 codes a segment: two bytes
		ints["f"][i] = rng.Int63n(100)
	}
	for _, name := range predInts {
		ints[name] = predColumn(rng, n)
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		return nil, err
	}
	if rng.Intn(3) > 0 {
		tbl.Flush() // otherwise the tail stays in the mutable region
	}
	g := &predGen{rng: rng, ints: ints}
	// The fuzzer's two constants sit on both sides of one comparison, where
	// MinInt64/MaxInt64 make each side wrap on its own.
	pinned := expr.Cmp{Op: expr.CmpOp(rng.Intn(6)),
		L: expr.Add(expr.Col(g.col()), expr.Int(lc)), R: expr.Sub(expr.Col(g.col()), expr.Int(rc))}
	q := &Query{
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("f"))},
		Filter:     expr.OrP(g.pred(depth), pinned),
	}
	if rng.Intn(3) > 0 {
		q.GroupBy = []string{"g"}
	}
	if rng.Intn(2) == 0 {
		q.Filter = expr.AndP(expr.Lt(expr.Col("f"), expr.Int(90)), q.Filter)
	}
	return &predCase{tbl: tbl, q: q}, nil
}

// predColumn is sumExprColumn — bit-pack at the 8/9-, 16/17- and 32/33-bit
// edges, RLE, delta, the two ends of int64 — plus the 63- and 64-bit spans.
func predColumn(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	switch rng.Intn(8) {
	case 0:
		for i := range vals {
			vals[i] = rng.Int63()
		}
		vals[0], vals[n-1] = 0, math.MaxInt64
	case 1:
		for i := range vals {
			vals[i] = int64(rng.Uint64())
		}
		vals[0], vals[n-1] = math.MinInt64, math.MaxInt64
	default:
		return sumExprColumn(rng, n)
	}
	return vals
}

type predGen struct {
	rng  *rand.Rand
	ints map[string][]int64
}

func (g *predGen) col() string { return predInts[g.rng.Intn(len(predInts))] }

// threshold draws a comparison constant: a value some column holds (so the
// comparison is live), or an edge.
func (g *predGen) threshold() int64 {
	if g.rng.Intn(4) == 0 {
		return []int64{0, 1, -1, 255, 256, 65536, math.MinInt64, math.MaxInt64}[g.rng.Intn(8)]
	}
	vals := g.ints[g.col()]
	return vals[g.rng.Intn(len(vals))] + int64(g.rng.Intn(3)-1)
}

func (g *predGen) pred(depth int) expr.Pred {
	if depth == 0 || g.rng.Intn(4) == 0 {
		return g.leaf()
	}
	switch g.rng.Intn(5) {
	case 0, 1:
		return expr.AndP(g.pred(depth-1), g.pred(depth-1))
	case 2, 3:
		return expr.OrP(g.pred(depth-1), g.pred(depth-1))
	default:
		return expr.NotP(g.pred(depth - 1))
	}
}

func (g *predGen) leaf() expr.Pred {
	op := expr.CmpOp(g.rng.Intn(6))
	switch g.rng.Intn(8) {
	case 0: // col vs const
		return expr.Cmp{Op: op, L: expr.Col(g.col()), R: expr.Int(g.threshold())}
	case 1: // const on the left
		return expr.Cmp{Op: op, L: expr.Int(g.threshold()), R: expr.Col(g.col())}
	case 2: // col vs col
		return expr.Cmp{Op: op, L: expr.Col(g.col()), R: expr.Col(g.col())}
	case 3, 4: // arithmetic, divide included, on either side
		l, r := sumExprTree(g.rng, predInts, 1+g.rng.Intn(2)), expr.Int(g.threshold())
		if g.rng.Intn(2) == 0 {
			return expr.Cmp{Op: op, L: l, R: sumExprTree(g.rng, predInts, 1)}
		}
		return expr.Cmp{Op: op, L: l, R: r}
	case 5:
		return expr.StrIn{Col: "s", Values: g.strings("s%02d", 40), Negate: g.rng.Intn(3) == 0}
	case 6:
		return expr.StrIn{Col: "w", Values: g.strings("w%03d", 300), Negate: g.rng.Intn(3) == 0}
	default:
		return expr.StrEq("w", "absent")
	}
}

func (g *predGen) strings(format string, card int) []string {
	vals := make([]string, 1+g.rng.Intn(5))
	for i := range vals {
		vals[i] = fmt.Sprintf(format, g.rng.Intn(card+20)) // some absent
	}
	return vals
}

// predOptions is every ablation switch alone, all of them together, and
// none, then the one-group reduction forced and the scalar loop it
// replaces, each on one worker and on several.
func predOptions() []Options {
	combos := []Options{
		{},
		{DisableZoneMaps: true}, {DisablePackedFilter: true}, {DisableRLEDomain: true},
		{DisableDictDomain: true}, {DisableDeltaDomain: true}, {DisableElimination: true},
		oracleOpts(),
		{ForceAggregation: ForceAgg(agg.StrategyReduce)}, {ForceAggregation: ForceAgg(agg.StrategyScalar)},
	}
	for _, o := range combos {
		o.Parallelism = 1
		combos = append(combos, o)
	}
	return combos
}

// check holds the case to RunNaive under every option set, with the narrow
// lanes and with the all-int64 ablation.
func (c *predCase) check(t *testing.T) {
	t.Helper()
	want, err := RunNaive(c.tbl, c.q)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range predOptions() {
		for _, wide := range []bool{false, true} {
			label := fmt.Sprintf("%+v wide=%v: where %v", opts, wide, c.q.Filter)
			p, err := prepare(c.tbl, c.q, opts, wide)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := p.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameResult(t, label, got, want)
			assertLaneOrder(t, label, p)
		}
	}
}

// FuzzPredProgram drives the residual predicate program — Compare's
// difference folding and its wrap-around fallback, the plan-time clamp, the
// typed and int64 mask kernels, dictionary leaves of both widths, AND/OR
// combination, NOT pushed to the leaves, and the pushdown split in front of
// it all — with seeded random tables and predicate trees against the
// row-at-a-time oracle.
func FuzzPredProgram(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed%4), seed*7-100, seed-20)
	}
	for i, c := range [][2]int64{
		{math.MaxInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64},
		{math.MaxInt64, math.MinInt64}, {math.MinInt64, math.MaxInt64},
		{math.MaxInt64, 0}, {0, math.MinInt64}, {math.MinInt64, 1}, {-1, math.MaxInt64},
	} {
		f.Add(int64(100+i), uint8(i%4), c[0], c[1])
		f.Add(int64(200+i), uint8(i%4), c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, lc, rc int64) {
		c, err := newPredCase(seed, 1+int(depth%4), lc, rc)
		if err != nil {
			t.Fatal(err)
		}
		c.check(t)
	})
}

// The generator must reach what the fuzz target claims to cover: every
// integer encoding, a dictionary on each side of 256 codes, residual plans
// with narrow, unsigned 8-byte and int64 comparisons, membership leaves, and
// arithmetic over narrow RLE and delta leaves.
func TestPredCasesCoverEncodingsAndKernels(t *testing.T) {
	kinds, widened := map[encoding.Kind]bool{}, map[encoding.Kind]bool{}
	masks := map[maskKind]bool{}
	lanes := map[int]bool{}
	cards := map[bool]bool{}
	var walk func(rp *predProg, nd *maskNode)
	walk = func(rp *predProg, nd *maskNode) {
		masks[nd.kind] = true
		switch nd.kind {
		case maskAnd, maskOr:
			walk(rp, nd.l)
			walk(rp, nd.r)
		case maskCmp, maskMember:
			lanes[rp.prog.Node(nd.a).Word] = true
		}
	}
	for seed := int64(0); seed < 48; seed++ {
		c, err := newPredCase(seed, 1+int(seed%4), seed*7-100, seed-20)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(c.tbl, c.q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range c.tbl.Segments() {
			for _, name := range predInts {
				col, _ := seg.IntCol(name)
				kinds[col.Kind()] = true
			}
			for _, name := range []string{"s", "w"} {
				col, _ := seg.StrCol(name)
				cards[col.Cardinality() > 256] = true
			}
			sp, err := p.planFor(seg)
			if err != nil {
				t.Fatal(err)
			}
			if sp.residual != nil {
				walk(sp.residual, sp.residual.root)
				widenedLeaves(&sp.residual.boundProg, widened)
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
			t.Errorf("no generated comparison computes over a narrow %v-encoded leaf", k)
		}
	}
	for _, k := range []maskKind{maskCmp, maskCmpSigned, maskMember, maskAnd, maskOr} {
		if !masks[k] {
			t.Errorf("no generated plan has a mask node of kind %d", k)
		}
	}
	for _, w := range []int{1, 2, 4, 8} {
		if !lanes[w] {
			t.Errorf("no generated plan compares a %d-byte vector", w)
		}
	}
	if !cards[false] || !cards[true] {
		t.Errorf("dictionaries on both sides of 256 codes: %v", cards)
	}
}

// residualTable has two bit-packed columns, an RLE and a delta column, and a
// small and a 300-code dictionary.
func residualTable(t *testing.T) *table.Table {
	t.Helper()
	tbl, err := table.New(table.Schema{
		{Name: "s", Type: table.String}, {Name: "wide", Type: table.String},
		{Name: "v", Type: table.Int64}, {Name: "w", Type: table.Int64},
		{Name: "run", Type: table.Int64}, {Name: "ts", Type: table.Int64},
	}, table.WithSegmentRows(5000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	ts := int64(0)
	for i := 0; i < 12000; i++ {
		ts += rng.Int63n(3)
		if err := tbl.AppendRow(fmt.Sprintf("s%d", rng.Intn(6)), fmt.Sprintf("k%03d", rng.Intn(300)),
			rng.Int63n(1000), rng.Int63n(10), int64(i/500%7), ts); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush()
	assertKind(t, tbl, "v", encoding.KindBitPack)
	assertKind(t, tbl, "run", encoding.KindRLE)
	assertKind(t, tbl, "ts", encoding.KindDelta)
	return tbl
}

// What used to be residual only for how it was spelled now pushes; what is
// residual by nature still says so, and returns the oracle's rows however
// the plan is ablated, priced or parallelised.
func TestResidualClass(t *testing.T) {
	tbl := residualTable(t)
	v, w := expr.Col("v"), expr.Col("w")
	count := func(p expr.Pred) *Query {
		return &Query{GroupBy: []string{"s"}, Aggregates: []Aggregate{CountStar(), SumOf(v)}, Filter: p}
	}
	for _, p := range []expr.Pred{
		expr.Ge(expr.Int(500), v),
		expr.NotP(expr.Le(v, expr.Int(500))),
		expr.NotP(expr.StrEq("s", "s1")),
		expr.NotP(expr.OrP(expr.Gt(v, expr.Int(500)), expr.StrInSet("s", "s1", "s4"))),
		expr.AndP(expr.Le(expr.Int(5), w), expr.NotP(expr.Lt(expr.Int(30), expr.Col("run")))),
	} {
		plans, err := Explain(tbl, count(p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range plans {
			if pl.PushedFilters == 0 || pl.ResidualFilter {
				t.Errorf("%s: pushed=%d residual=%v, want fully pushed", p, pl.PushedFilters, pl.ResidualFilter)
			}
		}
		got, err := Run(tbl, count(p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunNaive(tbl, count(p))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, p.String(), got, want)
	}

	for _, p := range []expr.Pred{
		expr.OrP(expr.Le(v, expr.Int(500)), expr.Ge(w, expr.Int(5))),
		expr.Le(expr.Add(v, w), expr.Int(500)),
		expr.Le(v, w),
		expr.AndP(expr.Ge(expr.Col("ts"), expr.Int(4000)), expr.OrP(expr.Eq(expr.Col("run"), expr.Int(3)), expr.Lt(expr.Col("ts"), expr.Mul(v, expr.Int(9))))),
		expr.OrP(expr.StrInSet("wide", "k001", "k299", "nope"), expr.StrNe("s", "s0")),
	} {
		want, err := RunNaive(tbl, count(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, prof := range []*costmodel.Profile{nil, costmodel.Static()} {
			for _, opts := range predOptions() {
				opts.CostProfile = prof
				plans, err := Explain(tbl, count(p), opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, pl := range plans {
					if !pl.ResidualFilter {
						t.Errorf("%s under %+v: residual=false", p, opts)
					}
				}
				got, err := Run(tbl, count(p), opts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("%s under %+v", p, opts), got, want)
			}
		}
	}
}

// A residual evaluates its leaves in decode and its masks in selection, and
// the decode model prices exactly the leaves and operators it evaluates.
func TestResidualPhasesAndModel(t *testing.T) {
	tbl := residualTable(t)
	q := &Query{Aggregates: []Aggregate{CountStar()},
		Filter: expr.OrP(expr.Le(expr.Add(expr.Col("v"), expr.Col("w")), expr.Int(500)), expr.StrEq("wide", "k007"))}
	rep, err := ExplainAnalyze(tbl, q, Options{CostProfile: costmodel.Static(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int64{}
	for _, pc := range rep.Phases {
		calls[pc.Phase] = pc.Calls
	}
	if calls["decode"] == 0 || calls["selection"] == 0 || calls["encoded-filter"] != 0 {
		t.Errorf("phase calls %v: want residual work under decode and selection only", calls)
	}
	prof := costmodel.Static()
	// v (10 bits) and w (4 bits) unpack, one add lands in two bytes, and the
	// 300-code dictionary's ids (9 bits) unpack.
	want := prof.UnpackCyclesPerRow(10) + prof.UnpackCyclesPerRow(4) + prof.UnpackCyclesPerRow(9) +
		prof.SumExprCyclesPerRow(expr.SumAdd, 2)
	for _, pl := range rep.Plans {
		if math.Abs(pl.DecodeModelCyclesPerRow-want) > 1e-9 {
			t.Errorf("decode model %.4f, want %.4f", pl.DecodeModelCyclesPerRow, want)
		}
	}
}
