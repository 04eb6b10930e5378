package expr

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bipie/internal/bitpack"
)

// rowAt is row j of a set of test columns, as the row interpreter reads it.
type rowAt struct {
	ints map[string][]int64
	strs map[string][]string
	j    int
}

func (r rowAt) Int(col string) int64  { return r.ints[col][r.j] }
func (r rowAt) Str(col string) string { return r.strs[col][r.j] }

// dataCols wraps explicit values as test columns, metadata taken from the
// data: bit-packed, except that a name starting with "dec" is a column that
// decodes to int64 (as RLE and delta do).
func dataCols(ints map[string][]int64) map[string]*testCol {
	cols := map[string]*testCol{}
	for name, vals := range ints {
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		cols[name] = &testCol{leaf: SumLeaf{Min: lo, Max: hi, Width: bitpack.BitsFor(uint64(hi - lo))}, vals: vals}
		if strings.HasPrefix(name, "dec") {
			cols[name].leaf.Width = 0
		}
	}
	return cols
}

// evalBoth evaluates e over the columns both ways — row by row through the
// interpreter, and as a typed program — requires them to agree, and returns
// the values.
func evalBoth(t *testing.T, e Expr, ints map[string][]int64, n int) []int64 {
	t.Helper()
	cols := dataCols(ints)
	b := NewSumBuilder(leafOf(cols), false)
	term, err := b.Term(e)
	if err != nil {
		t.Fatal(err)
	}
	bufs := evalProgram(b.Program(), cols, n)
	out := make([]int64, n)
	for j := range out {
		out[j] = EvalRow(e, rowAt{ints: ints, j: j})
		if got := termValue(term, bufs, j); got != out[j] {
			t.Fatalf("%s row %d: program %d, interpreter %d", e, j, got, out[j])
		}
	}
	return out
}

// holdsBoth evaluates p over the columns both ways — HoldsRow on the tree as
// written and on its NOT-free form, and with every comparison compiled by
// SumBuilder.Compare and read back off the program's vectors — requires
// them to agree, and returns the rows p keeps.
func holdsBoth(t *testing.T, p Pred, ints map[string][]int64, strs map[string][]string, n int) []bool {
	t.Helper()
	cols := dataCols(ints)
	out := make([]bool, n)
	for j := range out {
		r := rowAt{ints: ints, strs: strs, j: j}
		out[j] = HoldsRow(p, r)
		if HoldsRow(PushNot(p), r) != out[j] {
			t.Fatalf("%s row %d: PushNot gives %s, which disagrees", p, j, PushNot(p))
		}
		if got := holdsCompiled(t, p, cols, r, n); got != out[j] {
			t.Fatalf("%s row %d: compiled %v, interpreter %v", p, j, got, out[j])
		}
	}
	return out
}

// holdsCompiled is p at one row with its comparisons read off a compiled
// program: a SumCmp's sides are bare nodes or literals, compared as int64.
func holdsCompiled(t *testing.T, p Pred, cols map[string]*testCol, r rowAt, n int) bool {
	t.Helper()
	switch tt := p.(type) {
	case And:
		return holdsCompiled(t, tt.L, cols, r, n) && holdsCompiled(t, tt.R, cols, r, n)
	case Or:
		return holdsCompiled(t, tt.L, cols, r, n) || holdsCompiled(t, tt.R, cols, r, n)
	case Not:
		return !holdsCompiled(t, tt.P, cols, r, n)
	case Cmp:
		b := NewSumBuilder(leafOf(cols), false)
		sc, err := b.Compare(tt.Op, tt.L, tt.R)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []SumTerm{sc.L, sc.R} {
			if side != (SumTerm{Node: side.Node}) && !side.IsConst() {
				t.Fatalf("%s: compiled side %+v is neither a bare node nor a literal", tt, side)
			}
		}
		bufs := evalProgram(b.Program(), cols, n)
		return predRef(sc.Op, termValue(sc.L, bufs, r.j), termValue(sc.R, bufs, r.j))
	default:
		return HoldsRow(p, r)
	}
}

func masks(keep []bool) []byte {
	out := make([]byte, len(keep))
	for i, k := range keep {
		if k {
			out[i] = 0xFF
		}
	}
	return out
}

func TestCompileExprBasics(t *testing.T) {
	cols := map[string][]int64{
		"a": {1, 2, 3, 4},
		"b": {10, 20, 30, 40},
	}
	cases := []struct {
		e    Expr
		want []int64
	}{
		{Col("a"), []int64{1, 2, 3, 4}},
		{Int(7), []int64{7, 7, 7, 7}},
		{Add(Col("a"), Col("b")), []int64{11, 22, 33, 44}},
		{Sub(Col("b"), Col("a")), []int64{9, 18, 27, 36}},
		{Mul(Col("a"), Col("b")), []int64{10, 40, 90, 160}},
		{Div(Col("b"), Col("a")), []int64{10, 10, 10, 10}},
		{Negate(Col("a")), []int64{-1, -2, -3, -4}},
		{Add(Col("a"), Int(100)), []int64{101, 102, 103, 104}},
		{Sub(Col("a"), Int(1)), []int64{0, 1, 2, 3}},
		{Mul(Col("a"), Int(3)), []int64{3, 6, 9, 12}},
		{Div(Col("b"), Int(10)), []int64{1, 2, 3, 4}},
		// The TPC-H Q1 shape: price * (1 - disc) with scaled constants.
		{Mul(Col("b"), Sub(Int(100), Col("a"))), []int64{990, 1960, 2910, 3840}},
	}
	for _, c := range cases {
		if out := evalBoth(t, c.e, cols, 4); !reflect.DeepEqual(out, c.want) {
			t.Errorf("%s = %v, want %v", c.e, out, c.want)
		}
	}
}

func TestDivByZeroGuards(t *testing.T) {
	cols := map[string][]int64{"a": {6, 7}, "z": {0, 3}, "m": {math.MinInt64, -1}}
	if out := evalBoth(t, Div(Col("a"), Col("z")), cols, 2); out[0] != 0 || out[1] != 2 {
		t.Fatalf("vector div: %v", out)
	}
	if out := evalBoth(t, Div(Col("a"), Int(0)), cols, 2); out[0] != 0 || out[1] != 0 {
		t.Fatalf("const div by zero: %v", out)
	}
	if out := evalBoth(t, Div(Col("m"), Int(-1)), cols, 2); out[0] != math.MinInt64 || out[1] != 1 {
		t.Fatalf("MinInt64 / -1 must wrap: %v", out)
	}
}

func TestConstantFolding(t *testing.T) {
	cases := []struct {
		e    Expr
		want int64
	}{
		{Add(Int(2), Int(3)), 5},
		{Mul(Sub(Int(10), Int(4)), Int(2)), 12},
		{Negate(Int(9)), -9},
		{Div(Int(7), Int(2)), 3},
		{Div(Int(7), Int(0)), 0},
	}
	for _, c := range cases {
		folded := Fold(c.e)
		cst, ok := folded.(Const)
		if !ok || cst.V != c.want {
			t.Errorf("Fold(%s) = %v, want Const %d", c.e, folded, c.want)
		}
	}
	// Non-constant trees keep their structure but fold subtrees.
	f := Fold(Mul(Col("x"), Add(Int(1), Int(1))))
	b, ok := f.(Bin)
	if !ok {
		t.Fatalf("folded to %T", f)
	}
	if _, ok := b.R.(Const); !ok {
		t.Fatal("subtree not folded")
	}
}

func TestColumnsDedup(t *testing.T) {
	e := Mul(Add(Col("x"), Col("y")), Sub(Col("x"), Int(1)))
	if got := e.Columns(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("Columns=%v", got)
	}
	p := AndP(Le(Col("d"), Int(5)), Eq(Col("x"), Col("d")))
	if got := p.Columns(); !reflect.DeepEqual(got, []string{"d", "x"}) {
		t.Fatalf("pred Columns=%v", got)
	}
}

func TestIsCol(t *testing.T) {
	if name, ok := IsCol(Col("q")); !ok || name != "q" {
		t.Fatal("IsCol on ColRef")
	}
	if _, ok := IsCol(Add(Col("q"), Int(1))); ok {
		t.Fatal("IsCol on compound")
	}
}

func TestStrings(t *testing.T) {
	e := Mul(Col("p"), Sub(Int(1), Col("d")))
	if e.String() != "(p * (1 - d))" {
		t.Errorf("expr: %s", e)
	}
	p := AndP(Le(Col("s"), Int(9)), NotP(OrP(Gt(Col("a"), Int(0)), True())))
	want := "((s <= 9) AND (NOT ((a > 0) OR TRUE)))"
	if p.String() != want {
		t.Errorf("pred: %s want %s", p, want)
	}
}

func predRef(op CmpOp, a, b int64) bool {
	switch op {
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	default:
		return a >= b
	}
}

func TestCompilePredAllOpsConstRHS(t *testing.T) {
	// One column spanning all of int64, one narrow: the first forces the
	// int64 compare of two separately evaluated sides, the second lets the
	// difference fold into one node against one threshold.
	for _, vals := range [][]int64{
		{-5, -1, 0, 1, 3, 7, math.MaxInt64, math.MinInt64},
		{-5, -1, 0, 1, 3, 7},
	} {
		cols := map[string][]int64{"x": vals}
		for _, op := range []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE} {
			for _, rv := range []int64{-1, 0, 3, math.MinInt64, math.MaxInt64} {
				for _, p := range []Cmp{{Op: op, L: Col("x"), R: Int(rv)}, {Op: op, L: Int(rv), R: Col("x")}} {
					out := holdsBoth(t, p, cols, nil, len(vals))
					for i, v := range vals {
						want := predRef(op, v, rv)
						if p.R != Int(rv) {
							want = predRef(op, rv, v)
						}
						if out[i] != want {
							t.Fatalf("%s with x=%d: got %v want %v", p, v, out[i], want)
						}
					}
				}
			}
		}
	}
}

// Constants may not cross a comparison whose sides can wrap: the compiled
// form must wrap exactly where the interpreter does.
func TestCompareKeepsWrapAround(t *testing.T) {
	cols := map[string][]int64{"x": {0, 1, 5, 10}, "y": {math.MaxInt64 - 3, math.MaxInt64, math.MinInt64, -1},
		"dec": {1 << 41, 1<<41 + 9, 1<<41 + 70, 1<<41 + 99}}
	for _, p := range []Pred{
		// The difference fits int64 but the two literals' sum does not.
		Lt(Add(Col("x"), Int(7)), Sub(Col("dec"), Int(math.MaxInt64))),
		Ge(Sub(Int(-7), Col("x")), Sub(Int(math.MaxInt64), Col("dec"))),
		Le(Add(Col("x"), Int(math.MaxInt64)), Int(math.MaxInt64)),
		Gt(Sub(Col("y"), Int(math.MaxInt64)), Int(-5)),
		Lt(Add(Col("y"), Col("x")), Col("y")),
		Ge(Mul(Col("y"), Int(2)), Col("x")),
		Eq(Sub(Col("x"), Col("y")), Negate(Col("y"))),
		Ne(Int(math.MinInt64), Negate(Col("y"))),
	} {
		holdsBoth(t, p, cols, nil, 4)
	}
}

func TestCompilePredVectorRHS(t *testing.T) {
	cols := map[string][]int64{
		"a": {1, 5, 3, 3},
		"b": {2, 4, 3, 1},
	}
	if out := masks(holdsBoth(t, Lt(Col("a"), Col("b")), cols, nil, 4)); !reflect.DeepEqual(out, []byte{0xFF, 0, 0, 0}) {
		t.Fatalf("a<b: %v", out)
	}
	if out := masks(holdsBoth(t, Eq(Col("a"), Col("b")), cols, nil, 4)); !reflect.DeepEqual(out, []byte{0, 0, 0xFF, 0}) {
		t.Fatalf("a=b: %v", out)
	}
}

func TestCompilePredLogic(t *testing.T) {
	cols := map[string][]int64{"x": {1, 2, 3, 4, 5}}
	eval := func(p Pred) []byte { return masks(holdsBoth(t, p, cols, nil, 5)) }
	if out := eval(AndP(Ge(Col("x"), Int(2)), Le(Col("x"), Int(4)))); !reflect.DeepEqual(out, []byte{0, 0xFF, 0xFF, 0xFF, 0}) {
		t.Fatalf("range: %v", out)
	}
	if out := eval(OrP(Lt(Col("x"), Int(2)), Gt(Col("x"), Int(4)))); !reflect.DeepEqual(out, []byte{0xFF, 0, 0, 0, 0xFF}) {
		t.Fatalf("or: %v", out)
	}
	if out := eval(NotP(Eq(Col("x"), Int(3)))); !reflect.DeepEqual(out, []byte{0xFF, 0xFF, 0, 0xFF, 0xFF}) {
		t.Fatalf("not: %v", out)
	}
	if out := eval(True()); !reflect.DeepEqual(out, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) {
		t.Fatalf("true: %v", out)
	}
	if out := eval(NotP(True())); !reflect.DeepEqual(out, []byte{0, 0, 0, 0, 0}) {
		t.Fatalf("not true: %v", out)
	}
}

func TestPushNot(t *testing.T) {
	cases := []struct{ in, want Pred }{
		{NotP(Le(Col("v"), Int(5))), Gt(Col("v"), Int(5))},
		{NotP(NotP(Eq(Col("v"), Int(5)))), Eq(Col("v"), Int(5))},
		{NotP(StrEq("s", "x")), StrNe("s", "x")},
		{NotP(AndP(Lt(Col("a"), Col("b")), StrInSet("s", "x", "y"))),
			OrP(Ge(Col("a"), Col("b")), StrIn{Col: "s", Values: []string{"x", "y"}, Negate: true})},
		{NotP(OrP(Ne(Col("a"), Int(1)), NotP(Ge(Col("b"), Int(2))))), AndP(Eq(Col("a"), Int(1)), Ge(Col("b"), Int(2)))},
		{NotP(True()), Ne(Int(0), Int(0))},
		{AndP(True(), Le(Col("v"), Int(5))), AndP(True(), Le(Col("v"), Int(5)))},
	}
	for _, c := range cases {
		if got := PushNot(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("PushNot(%s) = %s, want %s", c.in, got, c.want)
		}
	}
	for op := OpEQ; op <= OpGE; op++ {
		for _, xy := range [][2]int64{{1, 2}, {2, 2}, {3, 2}} {
			x, y := xy[0], xy[1]
			if predRef(op.Mirror(), y, x) != predRef(op, x, y) {
				t.Errorf("Mirror of op %d wrong at %d, %d", op, x, y)
			}
			if predRef(op.Complement(), x, y) == predRef(op, x, y) {
				t.Errorf("Complement of op %d wrong at %d, %d", op, x, y)
			}
		}
	}
}

// Property: the typed program matches the row interpreter on random trees.
func TestQuickCompiledMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	var genExpr func(depth int) Expr
	genExpr = func(depth int) Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return Col("a")
			case 1:
				return Col("b")
			default:
				return Int(rng.Int63n(100) - 50)
			}
		}
		ops := []func(Expr, Expr) Expr{Add, Sub, Mul, Div}
		if rng.Intn(6) == 0 {
			return Negate(genExpr(depth - 1))
		}
		return ops[rng.Intn(len(ops))](genExpr(depth-1), genExpr(depth-1))
	}

	f := func(av, bv int64) bool {
		cols := map[string][]int64{"a": {av % 1000}, "b": {bv % 1000}}
		for trial := 0; trial < 20; trial++ {
			evalBoth(t, genExpr(4), cols, 1)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
