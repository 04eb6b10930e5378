package expr

import (
	"math"
	"math/bits"

	"bipie/internal/bitpack"
)

// Sum-expression programs. A whole query's aggregate inputs — and,
// separately, the two sides of every comparison its residual filter keeps —
// are compiled, once per (query × segment), into one straight-line program
// of typed vector operations whose leaves are the unpacked column vectors
// the scan materializes anyway and whose every node is assigned the
// narrowest unsigned word that segment metadata proves it fits (paper §2.2:
// stay on the smallest unpacked word). The same evaluator serves every case — a
// node whose range is negative, unprovable, or produced by a division simply
// takes the widest lane, where unsigned arithmetic modulo 2^64 is bit for
// bit Go's wrapping int64 arithmetic.
//
// Three rewrites keep the program short:
//
//   - constants float outward. Every reference to a node is an affine
//     SumTerm ±node + Add, so a bit-packed column's frame of reference, a
//     literal offset, or a negation is folded into the term, not
//     materialized: 100 - l_discount is a term over the discount offsets,
//     and the additive constant of a root is applied per group at result
//     assembly (Σ(±v + c) = ±Σv + c·count);
//   - structurally equal sub-expressions share one node (Q1's charge reuses
//     disc_price), with commutative operands ordered canonically;
//   - multiplication by a literal keeps the sign outside the node, so
//     node values stay non-negative whenever their inputs are.
//
// The rewrites are exact in the ring of integers modulo 2^64, which is the
// arithmetic Go's wrapping +, -, * and unary - perform; division is not a
// ring operation, so its operands are always evaluated as full int64 values.

// SumOp is the operation of one program node.
type SumOp uint8

const (
	// SumLeafPacked is the frame-of-reference offset vector of a bit-packed
	// column, unpacked to the smallest word for its width.
	SumLeafPacked SumOp = iota
	// SumLeafDecoded is a column the encoder stored as RLE or delta,
	// decoded to int64 values in the widest lane.
	SumLeafDecoded
	// SumAdd is L + R.
	SumAdd
	// SumMul is L × R.
	SumMul
	// SumDiv is L / R, truncating, zero when R is zero; always evaluated on
	// int64 values in the widest lane.
	SumDiv
)

// SumTerm is an affine reference to a program node: the value ±node + Add
// in wrapping int64 arithmetic. Node < 0 denotes the constant Add.
type SumTerm struct {
	Node int
	Neg  bool
	Add  int64
}

func constTerm(c int64) SumTerm { return SumTerm{Node: -1, Add: c} }

// IsConst reports whether the term reads no node.
func (t SumTerm) IsConst() bool { return t.Node < 0 }

// negated returns the term for -t.
func (t SumTerm) negated() SumTerm {
	if t.IsConst() {
		return constTerm(-t.Add)
	}
	return SumTerm{Node: t.Node, Neg: !t.Neg, Add: -t.Add}
}

// bare strips the additive constant.
func (t SumTerm) bare() SumTerm { return SumTerm{Node: t.Node, Neg: t.Neg} }

// SumNode is one node of a sum-expression program. Lo and Hi bound the
// node's value as the int64 Go's wrapping arithmetic would compute; Word is
// the lane — the unsigned word size in bytes — its vector is stored in.
// A narrow lane (Word < 8) is only ever assigned to a node with
// 0 ≤ Lo ≤ Hi < 2^(8·Word), so a narrow vector holds exact values. An
// operator's lane is never below its operands' (SumBuilder.op).
type SumNode struct {
	Op     SumOp
	Col    string  // leaves: the column read
	Width  uint8   // SumLeafPacked: the packed bit width
	L, R   SumTerm // operators
	Lo, Hi int64
	Word   int
}

// SumLeaf is what segment metadata says about one input column.
type SumLeaf struct {
	// Min and Max bound the column's values.
	Min, Max int64
	// Width is the packed bit width of a bit-packed column, whose leaf
	// vector holds offsets from Min; zero marks a column that decodes to
	// int64 values.
	Width uint8
}

// SumProgram is a compiled set of aggregate-input expressions: nodes in
// evaluation order (every operand precedes its user). It is plan state —
// built once by a SumBuilder, then shared read-only by every concurrent
// execution.
//
//bipie:immutable
type SumProgram struct {
	nodes []SumNode
}

// Len returns the number of nodes.
func (p *SumProgram) Len() int { return len(p.nodes) }

// Node returns node i.
func (p *SumProgram) Node(i int) SumNode { return p.nodes[i] }

// SumBuilder compiles expressions into one shared program. Terms returned
// by Term are valid against the program Program returns.
type SumBuilder struct {
	leaf  func(name string) (SumLeaf, error)
	wide  bool
	nodes []SumNode
	cols  map[string]SumTerm // a column's leaf term; Add is a packed leaf's frame of reference
	ops   map[opKey]int
}

type opKey struct {
	op   SumOp
	l, r SumTerm
	wide bool
}

// NewSumBuilder starts a program over the columns leaf resolves. With wide
// set every operator node takes the 8-byte lane regardless of its proven
// range — the ablation that holds the narrow lanes result-identical to
// plain int64 evaluation.
func NewSumBuilder(leaf func(name string) (SumLeaf, error), wide bool) *SumBuilder {
	return &SumBuilder{leaf: leaf, wide: wide, cols: map[string]SumTerm{}, ops: map[opKey]int{}}
}

// Node returns node i of the program under construction.
func (b *SumBuilder) Node(i int) SumNode { return b.nodes[i] }

// Program freezes the nodes built so far.
func (b *SumBuilder) Program() *SumProgram {
	return &SumProgram{nodes: append([]SumNode(nil), b.nodes...)}
}

// Term compiles e and returns the term that evaluates it.
func (b *SumBuilder) Term(e Expr) (SumTerm, error) {
	switch t := e.(type) {
	case Const:
		return constTerm(t.V), nil
	case ColRef:
		return b.column(t.Name)
	case Neg:
		x, err := b.Term(t.E)
		if err != nil {
			return SumTerm{}, err
		}
		return x.negated(), nil
	case Bin:
		l, err := b.Term(t.L)
		if err != nil {
			return SumTerm{}, err
		}
		r, err := b.Term(t.R)
		if err != nil {
			return SumTerm{}, err
		}
		switch t.Op {
		case OpAdd:
			return b.add(l, r), nil
		case OpSub:
			return b.add(l, r.negated()), nil
		case OpMul:
			return b.mul(l, r), nil
		default:
			return b.div(l, r), nil
		}
	default:
		panic("expr: unknown node in sum expression")
	}
}

// OrderedTerm compiles e for a MIN/MAX input: the returned term is never
// negated and provably never wraps, so the extremum of the node's vector
// plus Add is the extremum of the expression. A term that is not
// order-preserving is materialized into a node of its own.
func (b *SumBuilder) OrderedTerm(e Expr) (SumTerm, error) {
	t, err := b.Term(e)
	if err != nil || t.IsConst() {
		return t, err
	}
	if !t.Neg && !b.interval(t).full() {
		return t, nil
	}
	return SumTerm{Node: b.op(SumAdd, t, constTerm(0), false)}, nil
}

// SumCmp is a comparison compiled onto program nodes: the int64 value of L
// against that of R, both bare — a node's vector as it stands, or a literal.
// A literal R is a threshold for L's vector, to be clamped against the
// node's [Lo, Hi] (a literal L: both sides folded). A node R means nothing
// proved the two sides' difference free of wrap-around: both vectors sit in
// the 8-byte lane, to be compared as int64.
type SumCmp struct {
	Op   CmpOp
	L, R SumTerm
}

// Compare compiles l op r. Where the intervals prove l - r cannot wrap, the
// comparison is that difference against zero — shared sub-expressions,
// frames of reference and literals of both sides folded into one term, the
// term's sign and constant then moved across the operator — so one node in
// its narrowest lane meets one threshold. Equality always may: l = r
// exactly when l - r is 0 modulo 2^64. An ordering that can wrap may not
// (x + MaxInt64 <= MaxInt64 is not x <= 0); its sides evaluate on their own.
func (b *SumBuilder) Compare(op CmpOp, l, r Expr) (SumCmp, error) {
	lt, err := b.Term(l)
	if err != nil {
		return SumCmp{}, err
	}
	rt, err := b.Term(r)
	if err != nil {
		return SumCmp{}, err
	}
	eq := op == OpEQ || op == OpNE
	if eq || !b.interval(lt).add(b.interval(rt).neg()).full() {
		// The difference fits int64, and d is it modulo 2^64. A literal d is
		// therefore exact; so is ±x + c once x's range shows that sum cannot
		// wrap either, which is what lets c cross the operator.
		d := b.add(lt, rt.negated())
		switch exact := eq || !b.interval(d).full(); {
		case d.IsConst():
			return SumCmp{Op: op, L: d, R: constTerm(0)}, nil
		case exact && d.Neg: // -x + c op 0: x against c from the other side
			return SumCmp{Op: op.Mirror(), L: SumTerm{Node: d.Node}, R: constTerm(d.Add)}, nil
		case exact && (eq || d.Add != math.MinInt64):
			return SumCmp{Op: op, L: SumTerm{Node: d.Node}, R: constTerm(-d.Add)}, nil
		}
	}
	lt, rt = b.int64Operand(lt), b.int64Operand(rt)
	if lt.IsConst() {
		lt, rt, op = rt, lt, op.Mirror()
	}
	return SumCmp{Op: op, L: lt, R: rt}, nil
}

func (b *SumBuilder) column(name string) (SumTerm, error) {
	if t, ok := b.cols[name]; ok {
		return t, nil
	}
	lf, err := b.leaf(name)
	if err != nil {
		return SumTerm{}, err
	}
	nd := SumNode{Op: SumLeafDecoded, Col: name, Lo: lf.Min, Hi: lf.Max, Word: 8}
	t := SumTerm{Node: len(b.nodes)}
	if lf.Width > 0 {
		// Offsets from Min. A span wider than int64 (possible only at
		// width 64) reads back as negative offsets: full range.
		span := interval{0, lf.Max - lf.Min}
		if span.hi < 0 {
			span = fullInterval
		}
		nd = SumNode{Op: SumLeafPacked, Col: name, Width: lf.Width,
			Lo: span.lo, Hi: span.hi, Word: bitpack.WordBytes(lf.Width)}
		t.Add = lf.Min
	}
	b.nodes = append(b.nodes, nd)
	b.cols[name] = t
	return t, nil
}

// op returns the node computing l op r, sharing an existing one when the
// same operation was already built. wide forces the 8-byte lane.
func (b *SumBuilder) op(op SumOp, l, r SumTerm, wide bool) int {
	// Commutative operands in one canonical order: the wider lane left, so
	// literals (lane 0) right, then termLess.
	if ll, lr := b.lane(l), b.lane(r); op != SumDiv && (lr > ll || lr == ll && termLess(r, l)) {
		l, r = r, l
	}
	wide = wide || b.wide
	key := opKey{op, l, r, wide}
	if i, ok := b.ops[key]; ok {
		return i
	}
	li, ri := b.interval(l), b.interval(r)
	var iv interval
	switch op {
	case SumAdd:
		iv = li.add(ri)
	case SumMul:
		iv = li.mul(ri)
	default:
		iv = li.div(ri)
	}
	word := max(laneFor(iv), b.lane(l), b.lane(r))
	if wide {
		word = 8
	}
	b.nodes = append(b.nodes, SumNode{Op: op, L: l, R: r, Lo: iv.lo, Hi: iv.hi, Word: word})
	b.ops[key] = len(b.nodes) - 1
	return len(b.nodes) - 1
}

// lane is the word of t's node, 0 for a literal.
func (b *SumBuilder) lane(t SumTerm) int {
	if t.IsConst() {
		return 0
	}
	return b.nodes[t.Node].Word
}

func termLess(a, b SumTerm) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Neg != b.Neg {
		return !a.Neg
	}
	return a.Add < b.Add
}

// add builds l + r. The constants of both sides float out of the node, and
// a sum of two negated nodes is the negation of their sum.
func (b *SumBuilder) add(l, r SumTerm) SumTerm {
	switch {
	case l.IsConst() && r.IsConst():
		return constTerm(l.Add + r.Add)
	case l.IsConst():
		r.Add += l.Add
		return r
	case r.IsConst():
		l.Add += r.Add
		return l
	case l.Node == r.Node && l.Neg != r.Neg:
		return constTerm(l.Add + r.Add) // x - x
	}
	neg := l.Neg && r.Neg
	lb, rb := l.bare(), r.bare()
	if neg {
		lb.Neg, rb.Neg = false, false
	}
	return SumTerm{Node: b.op(SumAdd, lb, rb, false), Neg: neg, Add: l.Add + r.Add}
}

// mul builds l × r. A literal factor scales the term — its magnitude inside
// the node, its sign and the scaled constant outside; a negated operand
// with no constant of its own hands its sign to the product.
func (b *SumBuilder) mul(l, r SumTerm) SumTerm {
	if l.IsConst() {
		l, r = r, l
	}
	if l.IsConst() {
		return constTerm(l.Add * r.Add)
	}
	if r.IsConst() {
		c := r.Add
		switch c {
		case 0:
			return constTerm(0)
		case 1:
			return l
		case -1:
			return l.negated()
		}
		neg := l.Neg
		if c < 0 && c != math.MinInt64 {
			c, neg = -c, !neg
		}
		n := b.op(SumMul, SumTerm{Node: l.Node}, constTerm(c), false)
		return SumTerm{Node: n, Neg: neg, Add: l.Add * r.Add}
	}
	neg := false
	if l.Neg && l.Add == 0 {
		l.Neg, neg = false, !neg
	}
	if r.Neg && r.Add == 0 {
		r.Neg, neg = false, !neg
	}
	return SumTerm{Node: b.op(SumMul, l, r, false), Neg: neg}
}

// div builds l / r with the engine's guarded-divide convention. Division
// needs its operands as int64 values, not modulo a narrow word, so each is
// first brought into the 8-byte lane as a bare node.
func (b *SumBuilder) div(l, r SumTerm) SumTerm {
	if r.IsConst() {
		switch {
		case r.Add == 0:
			return constTerm(0)
		case r.Add == 1:
			return l
		case l.IsConst():
			return constTerm(l.Add / r.Add)
		}
	}
	return SumTerm{Node: b.op(SumDiv, b.int64Operand(l), b.int64Operand(r), true)}
}

func (b *SumBuilder) int64Operand(t SumTerm) SumTerm {
	if t.IsConst() || (t == SumTerm{Node: t.Node} && b.nodes[t.Node].Word == 8) {
		return t
	}
	return SumTerm{Node: b.op(SumAdd, t, constTerm(0), true)}
}

// interval is a closed range of int64 values. The full range doubles as
// "unknown": every int64 value Go could compute lies inside it, so it is
// what any operation that may wrap produces.
type interval struct{ lo, hi int64 }

var fullInterval = interval{math.MinInt64, math.MaxInt64}

func (iv interval) full() bool { return iv == fullInterval }

// interval bounds the value of a term over the builder's nodes.
func (b *SumBuilder) interval(t SumTerm) interval {
	if t.IsConst() {
		return interval{t.Add, t.Add}
	}
	iv := interval{b.nodes[t.Node].Lo, b.nodes[t.Node].Hi}
	if t.Neg {
		iv = iv.neg()
	}
	return iv.add(interval{t.Add, t.Add})
}

func (iv interval) neg() interval {
	if iv.lo == math.MinInt64 {
		return fullInterval
	}
	return interval{-iv.hi, -iv.lo}
}

func (iv interval) add(o interval) interval {
	lo, ok1 := addOK(iv.lo, o.lo)
	hi, ok2 := addOK(iv.hi, o.hi)
	if !ok1 || !ok2 {
		return fullInterval
	}
	return interval{lo, hi}
}

func (iv interval) mul(o interval) interval {
	out := interval{math.MaxInt64, math.MinInt64}
	for _, x := range [2]int64{iv.lo, iv.hi} {
		for _, y := range [2]int64{o.lo, o.hi} {
			p, ok := mulOK(x, y)
			if !ok {
				return fullInterval
			}
			out.lo, out.hi = min(out.lo, p), max(out.hi, p)
		}
	}
	return out
}

// div bounds the truncating, zero-guarded quotient. The magnitude of a
// quotient never exceeds its dividend's, and a zero divisor yields zero,
// so [-m, m] with m = max|dividend| always holds, halved when both signs
// are known; a divisor range that excludes zero tightens it to the
// quotients of the corners.
func (iv interval) div(o interval) interval {
	if iv.lo == math.MinInt64 {
		return fullInterval // MinInt64 / -1 wraps
	}
	if o.lo > 0 || o.hi < 0 {
		out := interval{math.MaxInt64, math.MinInt64}
		for _, x := range [2]int64{iv.lo, iv.hi} {
			for _, y := range [2]int64{o.lo, o.hi} {
				out.lo, out.hi = min(out.lo, x/y), max(out.hi, x/y)
			}
		}
		// Corners bound a quotient monotone in each argument per sign
		// region; a dividend range straddling zero also reaches zero.
		if iv.lo < 0 && iv.hi > 0 {
			out.lo, out.hi = min(out.lo, 0), max(out.hi, 0)
		}
		return out
	}
	m := max(iv.hi, -iv.lo)
	out := interval{-m, m}
	if (iv.lo >= 0 || iv.hi <= 0) && (o.lo >= 0 || o.hi <= 0) {
		// Both signs known: so is the quotient's.
		if (iv.lo >= 0) == (o.lo >= 0) {
			out.lo = 0
		} else {
			out.hi = 0
		}
	}
	return out
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	switch {
	case hi != 0:
		return 0, false
	case neg && lo <= 1<<63:
		return -int64(lo), true // -(1<<63) wraps back to MinInt64, exactly
	case !neg && lo < 1<<63:
		return int64(lo), true
	}
	return 0, false
}

func absU64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// laneFor returns the narrowest unsigned word holding every value of iv;
// anything that may be negative takes the int64 lane.
func laneFor(iv interval) int {
	switch {
	case iv.lo < 0:
		return 8
	case iv.hi <= math.MaxUint8:
		return 1
	case iv.hi <= math.MaxUint16:
		return 2
	case iv.hi <= math.MaxUint32:
		return 4
	default:
		return 8
	}
}
