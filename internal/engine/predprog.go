package engine

import (
	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/costmodel"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/sel"
)

// The residual predicate — what splitPushdown could not hand to an encoded
// domain: OR trees, column-vs-column, a comparison over arithmetic — runs on
// the evaluator the aggregate inputs use. The sides of its comparisons
// compile into one sum-expression program over the segment's columns (a
// dictionary's id vector is a packed leaf like any other), so a batch
// unpacks each column once, at its smallest word, and a comparison ends as
// one typed node vector against one threshold; AND and OR combine the
// leaves' masks eight rows per word.

// progLeaf is the column behind a leaf node of a sum-expression program.
type progLeaf struct {
	packed *bitpack.Vector    // SumLeafPacked: a bit-packed column's offsets, or a dictionary's ids
	col    encoding.IntColumn // the integer column, whatever its encoding
}

// boundProg is a sum-expression program bound to one segment: progLeaves
// resolves its leaf nodes (parallel to the nodes, zero for operators) and
// evalOrder lists the nodes a batch evaluates, operands first.
type boundProg struct {
	prog       *expr.SumProgram
	progLeaves []progLeaf
	evalOrder  []int
}

// segBuilder is a SumBuilder over one segment's columns; cols remembers the
// leaves it resolved.
type segBuilder struct {
	*expr.SumBuilder
	seg  *colstore.Segment
	cols map[string]progLeaf
}

func newSegBuilder(seg *colstore.Segment, wideLanes bool) *segBuilder {
	sb := &segBuilder{seg: seg, cols: map[string]progLeaf{}}
	sb.SumBuilder = expr.NewSumBuilder(sb.leaf, wideLanes)
	return sb
}

func (sb *segBuilder) leaf(name string) (expr.SumLeaf, error) {
	col, err := sb.seg.IntCol(name)
	if err != nil {
		sc, serr := sb.seg.StrCol(name)
		if serr != nil {
			return expr.SumLeaf{}, err
		}
		sb.cols[name] = progLeaf{packed: sc.IDs()}
		return expr.SumLeaf{Max: int64(sc.Cardinality()) - 1, Width: sc.IDs().Bits()}, nil
	}
	pl := progLeaf{col: col}
	lf := expr.SumLeaf{Min: col.Min(), Max: col.Max()}
	if bp, ok := col.(*encoding.BitPackColumn); ok {
		pl.packed, lf.Width = bp.Packed(), bp.Width()
	}
	sb.cols[name] = pl
	return lf, nil
}

// bind freezes the program and resolves its leaves.
func (sb *segBuilder) bind() boundProg {
	bp := boundProg{prog: sb.Program()}
	bp.progLeaves = make([]progLeaf, bp.prog.Len())
	for i := range bp.progLeaves {
		bp.progLeaves[i] = sb.cols[bp.prog.Node(i).Col] // zero for an operator
	}
	return bp
}

// decodeCost is the cost model's predicted cycles per row of one evaluation
// whose leaves load in full: Σ unpack(width) over the leaves evalOrder
// reads plus one typed pass per operator node.
func (bp *boundProg) decodeCost(prof *costmodel.Profile) float64 {
	cost := 0.0
	for _, i := range bp.evalOrder {
		switch nd, leaf := bp.prog.Node(i), bp.progLeaves[i]; {
		case leaf.packed != nil:
			cost += prof.UnpackCyclesPerRow(leaf.packed.Bits())
		case leaf.col != nil:
			cost += prof.DeltaDecodeCyclesPerRow() // stands in for RLE decode too
		default:
			cost += prof.SumExprCyclesPerRow(nd.Op, nd.Word)
		}
	}
	return cost
}

// reach lists the nodes the marked ones need, themselves included, in
// evaluation order; live is widened in place.
func reach(prog *expr.SumProgram, live []bool) []int {
	var order []int
	for i := len(live) - 1; i >= 0; i-- {
		if nd := prog.Node(i); live[i] && nd.Op != expr.SumLeafPacked && nd.Op != expr.SumLeafDecoded {
			for _, t := range [2]expr.SumTerm{nd.L, nd.R} {
				if !t.IsConst() {
					live[t.Node] = true
				}
			}
		}
	}
	for i, on := range live {
		if on {
			order = append(order, i)
		}
	}
	return order
}

// maskKind is the operation of one residual-predicate node.
type maskKind uint8

const (
	maskCmp       maskKind = iota // unsigned node vector against a threshold
	maskCmpSigned                 // int64 node vector against a threshold or a second vector
	maskMember                    // dictionary ids through a membership table
	maskAnd
	maskOr
	maskNone // the whole predicate folded to false; only ever the root
)

// maskNode is one node of the residual predicate's mask tree; immutable
// plan state, like the program it reads.
type maskNode struct {
	kind maskKind
	l, r *maskNode // maskAnd, maskOr

	// Leaves read value nodes of the program: a against the threshold t, or
	// (maskCmpSigned with b >= 0) against node b.
	a, b int
	t    int64
	op   pushOp // maskCmp: the live inclusive comparison
	neg  byte   // maskCmpSigned: a <= t or b, complemented when 0xFF
	// member is maskMember's table, one 0x00/0xFF byte per dictionary code.
	member []byte
}

// scratch is how many mask vectors evaluating nd needs beside its output.
func (nd *maskNode) scratch() int {
	if nd.kind != maskAnd && nd.kind != maskOr {
		return 0
	}
	return max(nd.l.scratch(), 1+nd.r.scratch())
}

// markValues marks the program nodes the tree's leaves read.
func (nd *maskNode) markValues(live []bool) {
	switch nd.kind {
	case maskAnd, maskOr:
		nd.l.markValues(live)
		nd.r.markValues(live)
	case maskNone:
	default:
		live[nd.a] = true
		if nd.kind == maskCmpSigned && nd.b >= 0 {
			live[nd.b] = true
		}
	}
}

// predProg is a compiled residual predicate: the value program its
// comparisons read and the mask tree over it.
type predProg struct {
	boundProg
	root *maskNode
}

// compileResidual compiles p against seg. A nil result means the predicate
// folded to true against segment metadata and nothing is left to evaluate.
func compileResidual(p expr.Pred, seg *colstore.Segment, wideLanes bool) (*predProg, error) {
	sb := newSegBuilder(seg, wideLanes)
	root, verdict, err := sb.compile(p)
	switch {
	case err != nil:
		return nil, err
	case verdict == pushAll:
		return nil, nil
	case verdict == pushNone:
		root = &maskNode{kind: maskNone}
	}
	pp := &predProg{boundProg: sb.bind(), root: root}
	live := make([]bool, pp.prog.Len())
	root.markValues(live)
	pp.evalOrder = reach(pp.prog, live)
	return pp, nil
}

// compile returns p's mask node, or — when metadata decides p for the whole
// segment — no node and the verdict pushAll or pushNone.
func (sb *segBuilder) compile(p expr.Pred) (*maskNode, pushOp, error) {
	switch t := p.(type) {
	case expr.TruePred:
		return nil, pushAll, nil
	case expr.Not: // only when Prepare's PushNot has not run
		return sb.compile(expr.PushNot(t))
	case expr.And:
		return sb.combine(maskAnd, pushNone, t.L, t.R)
	case expr.Or:
		return sb.combine(maskOr, pushAll, t.L, t.R)
	case expr.Cmp:
		return sb.compare(t)
	case expr.StrIn:
		col, err := sb.seg.StrCol(t.Col)
		if err != nil {
			return nil, 0, err
		}
		member, selected := strMembers(t, col)
		switch selected {
		case 0:
			return nil, pushNone, nil
		case len(member):
			return nil, pushAll, nil
		}
		ids, err := sb.Term(expr.Col(t.Col))
		return &maskNode{kind: maskMember, a: ids.Node, member: member}, 0, err
	default:
		panic("engine: unknown predicate node")
	}
}

// combine builds l AND r or l OR r; absorbing is the verdict of one side
// that decides the whole (none for AND, all for OR), the other verdict
// leaving just the other side.
func (sb *segBuilder) combine(kind maskKind, absorbing pushOp, lp, rp expr.Pred) (*maskNode, pushOp, error) {
	l, lv, err := sb.compile(lp)
	if err != nil {
		return nil, 0, err
	}
	r, rv, err := sb.compile(rp)
	switch {
	case err != nil:
		return nil, 0, err
	case l != nil && r != nil:
		return &maskNode{kind: kind, l: l, r: r}, 0, nil
	case l == nil && lv == absorbing, r == nil && rv == absorbing:
		return nil, absorbing, nil
	case l == nil:
		return r, rv, nil
	default:
		return l, lv, nil
	}
}

// compare compiles one comparison: the builder reduces it to a node against
// a threshold (or, unprovable, against a node), and the threshold clamps
// against the node's proven range as a pushed one does against its column's.
func (sb *segBuilder) compare(t expr.Cmp) (*maskNode, pushOp, error) {
	sc, err := sb.Compare(t.Op, t.L, t.R)
	if err != nil {
		return nil, 0, err
	}
	if !sc.R.IsConst() { // an ordering: onto a <= b, by exchange and complement
		nd := &maskNode{kind: maskCmpSigned, a: sc.L.Node, b: sc.R.Node}
		if sc.Op == expr.OpGE || sc.Op == expr.OpLT {
			nd.a, nd.b = nd.b, nd.a
		}
		if sc.Op == expr.OpGT || sc.Op == expr.OpLT {
			nd.neg = 0xFF
		}
		return nd, 0, nil
	}
	lo, hi, word := sc.L.Add, sc.L.Add, 8 // both sides folded: a one-value range
	if !sc.L.IsConst() {
		vn := sb.Node(sc.L.Node)
		lo, hi, word = vn.Lo, vn.Hi, vn.Word
	}
	op, thr, _ := clampCmp(sc.Op, sc.R.Add, lo, hi)
	switch {
	case op.constant():
		return nil, op, nil
	case word < 8 || lo >= 0 || op == pushEQ || op == pushNE:
		return &maskNode{kind: maskCmp, a: sc.L.Node, op: op, t: thr}, 0, nil
	case op == pushGE:
		// A node that may be negative holds int64 bits. a >= t is NOT
		// a <= t-1, t-1 existing because a live t lies above lo.
		return &maskNode{kind: maskCmpSigned, a: sc.L.Node, b: -1, t: thr - 1, neg: 0xFF}, 0, nil
	default:
		return &maskNode{kind: maskCmpSigned, a: sc.L.Node, b: -1, t: thr}, 0, nil
	}
}

// progBufs is the exec-side half of a boundProg: a lane-typed vector per
// evaluated node, and decode scratch for the leaves that are not bit-packed.
type progBufs struct {
	nodeBufs []*bitpack.Unpacked
	leafI64  [][]int64
}

func newProgBufs(bp *boundProg) progBufs {
	pb := progBufs{
		nodeBufs: make([]*bitpack.Unpacked, bp.prog.Len()),
		leafI64:  make([][]int64, bp.prog.Len()),
	}
	for _, i := range bp.evalOrder {
		nd := bp.prog.Node(i)
		pb.nodeBufs[i] = bitpack.NewUnpacked(uint8(8*nd.Word), colstore.BatchRows)
		if nd.Op == expr.SumLeafDecoded {
			pb.leafI64[i] = make([]int64, colstore.BatchRows)
		}
	}
	return pb
}

// evalMask writes nd's mask over the batch into out. Its value program has
// been evaluated over the whole batch; masks[depth:] are free for the right
// operands on the way down.
//
//bipie:kernel
func (e *execState) evalMask(nd *maskNode, out sel.ByteVec, depth int) {
	bufs := e.residBufs.nodeBufs
	switch nd.kind {
	case maskAnd, maskOr:
		tmp := e.masks[depth][:len(out)]
		e.evalMask(nd.l, out, depth)
		e.evalMask(nd.r, tmp, depth+1)
		if nd.kind == maskAnd {
			out.And(tmp)
		} else {
			out.Or(tmp)
		}
	case maskCmp:
		sel.CmpMaskLanes(out, bufs[nd.a], uint64(nd.t), nd.op.cmp(), true)
	case maskCmpSigned:
		var b []uint64
		if nd.b >= 0 {
			b = bufs[nd.b].U64
		}
		sel.CmpMaskSigned(out, bufs[nd.a].U64, b, nd.t, nd.neg)
	case maskMember:
		switch buf := bufs[nd.a]; buf.WordSize {
		case 1:
			memberMask(out, buf.U8, nd.member)
		case 2:
			memberMask(out, buf.U16, nd.member)
		case 4:
			memberMask(out, buf.U32, nd.member)
		default:
			memberMask(out, buf.U64, nd.member)
		}
	default: // maskNone
		clear(out)
	}
}

// memberMask writes the mask of a string predicate over one batch of
// dictionary ids, unpacked at their own word: member has a byte per code.
//
//bipie:kernel
func memberMask[T uint8 | uint16 | uint32 | uint64](vec sel.ByteVec, ids []T, member []byte) {
	ids = ids[:len(vec)]
	for i, id := range ids {
		vec[i] = member[id]
	}
}
