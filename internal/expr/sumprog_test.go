package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bipie/internal/bitpack"
)

// testCol is one synthetic input column: metadata plus the values behind it.
type testCol struct {
	leaf SumLeaf
	vals []int64
}

func leafOf(cols map[string]*testCol) func(string) (SumLeaf, error) {
	return func(name string) (SumLeaf, error) {
		c, ok := cols[name]
		if !ok {
			return SumLeaf{}, fmt.Errorf("no column %q", name)
		}
		return c.leaf, nil
	}
}

// packedCol builds a bit-packed column's metadata over [lo, hi].
func packedCol(rng *rand.Rand, n int, lo, hi int64) *testCol {
	c := &testCol{leaf: SumLeaf{Min: lo, Max: hi, Width: bitpack.BitsFor(uint64(hi - lo))}}
	c.fill(rng, n)
	return c
}

func decodedCol(rng *rand.Rand, n int, lo, hi int64) *testCol {
	c := &testCol{leaf: SumLeaf{Min: lo, Max: hi}}
	c.fill(rng, n)
	return c
}

// fill draws values over the column's range, pinning both ends so the
// proven bounds are reached.
func (c *testCol) fill(rng *rand.Rand, n int) {
	span := uint64(c.leaf.Max - c.leaf.Min)
	c.vals = make([]int64, n)
	for i := range c.vals {
		off := rng.Uint64()
		if span != math.MaxUint64 {
			off %= span + 1
		}
		c.vals[i] = c.leaf.Min + int64(off)
	}
	c.vals[0], c.vals[n-1] = c.leaf.Min, c.leaf.Max
}

// evalProgram runs every node of p over the columns the way the engine
// does: leaves loaded as offset or int64 vectors, operators through Eval.
func evalProgram(p *SumProgram, cols map[string]*testCol, n int) []*bitpack.Unpacked {
	bufs := make([]*bitpack.Unpacked, p.Len())
	for i := range bufs {
		nd := p.Node(i)
		bufs[i] = bitpack.NewUnpacked(uint8(8*nd.Word), n)
		switch nd.Op {
		case SumLeafPacked, SumLeafDecoded:
			c := cols[nd.Col]
			for j, v := range c.vals {
				x := uint64(v)
				if nd.Op == SumLeafPacked {
					x = uint64(v - c.leaf.Min)
				}
				switch nd.Word {
				case 1:
					bufs[i].U8[j] = uint8(x)
				case 2:
					bufs[i].U16[j] = uint16(x)
				case 4:
					bufs[i].U32[j] = uint32(x)
				default:
					bufs[i].U64[j] = x
				}
			}
		default:
			p.Eval(bufs, i, n)
		}
	}
	return bufs
}

// termValue reads row j of a term from evaluated node vectors.
func termValue(t SumTerm, bufs []*bitpack.Unpacked, j int) int64 {
	if t.IsConst() {
		return t.Add
	}
	v := int64(bufs[t.Node].Get(j))
	if t.Neg {
		v = -v
	}
	return v + t.Add
}

func randExpr(rng *rand.Rand, names []string, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			consts := []int64{0, 1, -1, 2, 100, -7, 255, 256, 65536, 1 << 32, math.MaxInt64, math.MinInt64}
			return Int(consts[rng.Intn(len(consts))])
		}
		return Col(names[rng.Intn(len(names))])
	}
	l, r := randExpr(rng, names, depth-1), randExpr(rng, names, depth-1)
	switch rng.Intn(6) {
	case 0:
		return Add(l, r)
	case 1:
		return Sub(l, r)
	case 2, 3:
		return Mul(l, r)
	case 4:
		return Div(l, r)
	default:
		return Negate(l)
	}
}

// TestSumProgramMatchesCompileExpr holds the typed program — narrow lanes
// and the all-int64 ablation alike — bit-identical to the row interpreter
// (the closure compiler the name remembers is gone) on random trees over
// columns whose ranges sit on the word edges.
func TestSumProgramMatchesCompileExpr(t *testing.T) {
	const n = 97
	rng := rand.New(rand.NewSource(15))
	cols := map[string]*testCol{
		"b255":  packedCol(rng, n, 0, 255),
		"b256":  packedCol(rng, n, 0, 256),
		"ref":   packedCol(rng, n, 90000, 90000+65535),
		"nref":  packedCol(rng, n, -5000, 60536),
		"w32":   packedCol(rng, n, 1, 1<<32),
		"u32":   packedCol(rng, n, 0, 1<<32-1),
		"big":   packedCol(rng, n, math.MinInt64/2, math.MaxInt64/2+5),
		"all":   packedCol(rng, n, math.MinInt64, math.MaxInt64),
		"rle":   decodedCol(rng, n, -3, 40),
		"delta": decodedCol(rng, n, math.MaxInt64-1000, math.MaxInt64),
	}
	names := make([]string, 0, len(cols))
	for name := range cols {
		names = append(names, name)
	}
	ints := map[string][]int64{}
	for name, c := range cols {
		ints[name] = c.vals
	}
	want := make([]int64, n)
	for trial := 0; trial < 600; trial++ {
		e := randExpr(rng, names, 1+rng.Intn(4))
		for j := range want {
			want[j] = EvalRow(e, rowAt{ints: ints, j: j})
		}
		for _, wide := range []bool{false, true} {
			b := NewSumBuilder(leafOf(cols), wide)
			term, err := b.Term(e)
			if err != nil {
				t.Fatal(err)
			}
			ord, err := b.OrderedTerm(e)
			if err != nil {
				t.Fatal(err)
			}
			p := b.Program()
			bufs := evalProgram(p, cols, n)
			for j := range want {
				if got := termValue(term, bufs, j); got != want[j] {
					t.Fatalf("%s wide=%v row %d: term %d, interpreter %d", e, wide, j, got, want[j])
				}
				if got := termValue(ord, bufs, j); got != want[j] {
					t.Fatalf("%s wide=%v row %d: ordered term %d, interpreter %d", e, wide, j, got, want[j])
				}
			}
			if ord.Neg {
				t.Fatalf("%s: ordered term is negated", e)
			}
			for i := 0; i < p.Len(); i++ {
				checkNode(t, p, i, bufs[i], e)
			}
		}
	}
}

// checkNode asserts the proof the lane choice rests on: every value of
// node i lies in its [Lo, Hi], and a narrow lane is only used for a range
// that fits it — and the lane order the kernels are instantiated for: an
// operator no narrower than its operands, a commutative one's left operand
// no narrower than its right, literals right.
func checkNode(t *testing.T, p *SumProgram, i int, buf *bitpack.Unpacked, e Expr) {
	t.Helper()
	nd := p.Node(i)
	if nd.Word < 8 && (nd.Lo < 0 || uint64(nd.Hi) >= 1<<(8*nd.Word)) {
		t.Fatalf("%s: lane %d for range [%d, %d]", e, nd.Word, nd.Lo, nd.Hi)
	}
	if err := laneOrder(p, i); err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	for j := 0; j < buf.Len(); j++ {
		if v := int64(buf.Get(j)); v < nd.Lo || v > nd.Hi {
			t.Fatalf("%s: node value %d outside proven [%d, %d]", e, v, nd.Lo, nd.Hi)
		}
	}
}

// laneOrder reports how node i breaks the lane order Eval dispatches on.
func laneOrder(p *SumProgram, i int) error {
	nd := p.Node(i)
	if nd.Op == SumLeafPacked || nd.Op == SumLeafDecoded {
		return nil
	}
	lane := func(t SumTerm) int {
		if t.IsConst() {
			return 0
		}
		return p.Node(t.Node).Word
	}
	switch l, r := lane(nd.L), lane(nd.R); {
	case l > nd.Word || r > nd.Word:
		return fmt.Errorf("node %d in lane %d reads lanes %d and %d", i, nd.Word, l, r)
	case nd.Op != SumDiv && l < max(r, 1):
		return fmt.Errorf("node %d: left lane %d, right lane %d (0 a literal)", i, l, r)
	}
	return nil
}

func TestSumIntervalLanes(t *testing.T) {
	cols := map[string]*testCol{
		"a":     {leaf: SumLeaf{Min: 0, Max: 15, Width: 4}},
		"b":     {leaf: SumLeaf{Min: 0, Max: 17, Width: 5}},
		"price": {leaf: SumLeaf{Min: 90000, Max: 10494950, Width: 24}},
		"disc":  {leaf: SumLeaf{Min: 0, Max: 10, Width: 4}},
		"tax":   {leaf: SumLeaf{Min: 0, Max: 8, Width: 4}},
		"neg":   {leaf: SumLeaf{Min: -4, Max: 4, Width: 4}},
		"run":   {leaf: SumLeaf{Min: 0, Max: 9}},
		"huge":  {leaf: SumLeaf{Min: 0, Max: math.MaxInt64, Width: 63}},
	}
	cases := []struct {
		e      Expr
		word   int
		lo, hi int64
	}{
		{Mul(Col("a"), Col("b")), 1, 0, 255},              // 15·17 = 255: the last byte value
		{Mul(Col("a"), Add(Col("b"), Int(1))), 2, 0, 270}, // 15·18 = 270 needs two bytes
		{Mul(Mul(Col("a"), Col("b")), Int(257)), 2, 0, 65535},
		{Mul(Mul(Col("a"), Col("b")), Int(258)), 4, 0, 65790},
		{Mul(Col("price"), Sub(Int(100), Col("disc"))), 4, 90000 * 90, 10494950 * 100},
		{Mul(Mul(Col("price"), Sub(Int(100), Col("disc"))), Add(Int(100), Col("tax"))), 8, 90000 * 90 * 100, 10494950 * 100 * 108},
		{Mul(Col("a"), Col("neg")), 8, -60, 60},                       // negative range: int64 lane
		{Mul(Col("huge"), Col("a")), 8, math.MinInt64, math.MaxInt64}, // may wrap: unknown
		{Add(Col("run"), Col("a")), 8, 0, 24},                         // narrow sum, but never below an operand's lane
		{Div(Col("price"), Col("a")), 8, 0, 10494950},                 // division: int64 lane
		{Add(Div(Col("a"), Int(4)), Col("a")), 8, 0, 18},              // and so is what reads it
	}
	for _, c := range cases {
		b := NewSumBuilder(leafOf(cols), false)
		term, err := b.Term(c.e)
		if err != nil {
			t.Fatal(err)
		}
		nd := b.Program().Node(term.Node)
		if nd.Word != c.word || nd.Lo != c.lo || nd.Hi != c.hi {
			t.Errorf("%s: lane %d range [%d, %d], want lane %d range [%d, %d]",
				c.e, nd.Word, nd.Lo, nd.Hi, c.word, c.lo, c.hi)
		}
	}
}

func TestSumTermsFoldAndShare(t *testing.T) {
	cols := map[string]*testCol{
		"price": {leaf: SumLeaf{Min: 90000, Max: 10494950, Width: 24}},
		"disc":  {leaf: SumLeaf{Min: 0, Max: 10, Width: 4}},
		"tax":   {leaf: SumLeaf{Min: 0, Max: 8, Width: 4}},
		"qty":   {leaf: SumLeaf{Min: 1, Max: 50, Width: 6}},
	}
	b := NewSumBuilder(leafOf(cols), false)
	term := func(e Expr) SumTerm {
		t.Helper()
		tm, err := b.Term(e)
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	disc := Mul(Col("price"), Sub(Int(100), Col("disc")))
	charge := Mul(disc, Add(Int(100), Col("tax")))
	qty, price, dp, ch := term(Col("qty")), term(Col("price")), term(disc), term(charge)
	// Q1's inputs: four leaves and one multiply each for disc_price and
	// charge — the constants and both frames of reference live in terms.
	if n := b.Program().Len(); n != 6 {
		t.Fatalf("Q1 inputs compile to %d nodes, want 6", n)
	}
	if qty.Add != 1 || price.Add != 90000 {
		t.Errorf("leaf terms carry refs %d, %d; want 1, 90000", qty.Add, price.Add)
	}
	p := b.Program()
	if nd := p.Node(ch.Node); nd.L.Node != dp.Node && nd.R.Node != dp.Node {
		t.Errorf("charge %+v does not reuse disc_price node %d", nd, dp.Node)
	}
	if nd := p.Node(dp.Node); nd.R != (SumTerm{Node: nd.R.Node, Neg: true, Add: 100}) {
		t.Errorf("disc_price right operand %+v, want 100 - disc offsets", nd.R)
	}
	// Equal inputs in any spelling are one term.
	if again := term(Mul(Sub(Int(100), Col("disc")), Col("price"))); again != dp {
		t.Errorf("commuted product %+v, want %+v", again, dp)
	}
	if got, want := term(Sub(Int(7), Mul(Col("qty"), Int(-3)))), term(Add(Mul(Int(3), Col("qty")), Int(7))); got != want {
		t.Errorf("7 - qty*-3 = %+v, 3*qty + 7 = %+v", got, want)
	}
	if got := term(Sub(Col("qty"), Col("qty"))); !got.IsConst() || got.Add != 0 {
		t.Errorf("qty - qty = %+v, want the constant 0", got)
	}
	if got := term(Negate(Col("qty"))); got != (SumTerm{Node: qty.Node, Neg: true, Add: -1}) {
		t.Errorf("-qty = %+v", got)
	}
	if _, err := b.Term(Col("missing")); err == nil {
		t.Error("unknown column compiled")
	}
}
