package expr

import "bipie/internal/bitpack"

// The program's operator kernels: one tight loop per (operation, destination
// lane, operand lanes), instantiated by the compiler from three generic
// bodies — the counterpart of the paper's template-generated operators — for
// the shapes the builder's lane order admits (SumBuilder.op): destination ≥
// left ≥ right. A narrower operand is zero-extended (narrow lanes hold exact
// non-negative values), so every loop computes its node modulo 2^(8·lane);
// the builder's range proof is what makes that the exact value in a narrow
// lane.

// word is a lane's element type.
type word interface {
	uint8 | uint16 | uint32 | uint64
}

// Eval computes operator node i over the first n values of its operand
// vectors, bufs[j] being node j's vector, into bufs[i].
//
//bipie:kernel
func (p *SumProgram) Eval(bufs []*bitpack.Unpacked, i, n int) {
	nd := &p.nodes[i]
	dst := bufs[i]
	dst.Resize(n)
	var a, b *bitpack.Unpacked
	r := 0 // the right operand's lane, 0 for a literal
	if !nd.L.IsConst() {
		a = bufs[nd.L.Node]
	}
	if !nd.R.IsConst() {
		b = bufs[nd.R.Node]
		r = b.WordSize
	}
	if nd.Op == SumDiv {
		// The builder hands division bare lane-8 operands or literals.
		switch {
		case a == nil:
			divCV(dst.U64, nd.L.Add, b.U64)
		case b == nil:
			divVC(dst.U64, a.U64, nd.R.Add)
		default:
			divVV(dst.U64, a.U64, b.U64)
		}
		return
	}
	// One case per instantiation — 20 evalVV, 10 evalVC — keyed by its lanes
	// as hex digits: destination, left, right. Sums and products keep
	// literals on the right, so a is never nil.
	switch dst.WordSize<<8 | a.WordSize<<4 | r {
	case 0x110:
		evalVC(nd, dst.U8, a.U8)
	case 0x111:
		evalVV(nd, dst.U8, a.U8, b.U8)
	case 0x210:
		evalVC(nd, dst.U16, a.U8)
	case 0x211:
		evalVV(nd, dst.U16, a.U8, b.U8)
	case 0x220:
		evalVC(nd, dst.U16, a.U16)
	case 0x221:
		evalVV(nd, dst.U16, a.U16, b.U8)
	case 0x222:
		evalVV(nd, dst.U16, a.U16, b.U16)
	case 0x410:
		evalVC(nd, dst.U32, a.U8)
	case 0x411:
		evalVV(nd, dst.U32, a.U8, b.U8)
	case 0x420:
		evalVC(nd, dst.U32, a.U16)
	case 0x421:
		evalVV(nd, dst.U32, a.U16, b.U8)
	case 0x422:
		evalVV(nd, dst.U32, a.U16, b.U16)
	case 0x440:
		evalVC(nd, dst.U32, a.U32)
	case 0x441:
		evalVV(nd, dst.U32, a.U32, b.U8)
	case 0x442:
		evalVV(nd, dst.U32, a.U32, b.U16)
	case 0x444:
		evalVV(nd, dst.U32, a.U32, b.U32)
	case 0x810:
		evalVC(nd, dst.U64, a.U8)
	case 0x811:
		evalVV(nd, dst.U64, a.U8, b.U8)
	case 0x820:
		evalVC(nd, dst.U64, a.U16)
	case 0x821:
		evalVV(nd, dst.U64, a.U16, b.U8)
	case 0x822:
		evalVV(nd, dst.U64, a.U16, b.U16)
	case 0x840:
		evalVC(nd, dst.U64, a.U32)
	case 0x841:
		evalVV(nd, dst.U64, a.U32, b.U8)
	case 0x842:
		evalVV(nd, dst.U64, a.U32, b.U16)
	case 0x844:
		evalVV(nd, dst.U64, a.U32, b.U32)
	case 0x880:
		evalVC(nd, dst.U64, a.U64)
	case 0x881:
		evalVV(nd, dst.U64, a.U64, b.U8)
	case 0x882:
		evalVV(nd, dst.U64, a.U64, b.U16)
	case 0x884:
		evalVV(nd, dst.U64, a.U64, b.U32)
	default: // 0x888
		evalVV(nd, dst.U64, a.U64, b.U64)
	}
}

// signMask is the two's-complement negation mask of a term: (x^m)-m is x
// for m = 0 and -x for m = all ones, without a branch or a multiply.
func signMask[D word](neg bool) D {
	if neg {
		return ^D(0)
	}
	return 0
}

// evalVV computes (±a + ca) op (±b + cb) for op in {+, ×}.
//
//bipie:nobce
func evalVV[D, A, B word](nd *SumNode, dst []D, a []A, b []B) {
	ma, mb := signMask[D](nd.L.Neg), signMask[D](nd.R.Neg)
	ca, cb := D(nd.L.Add), D(nd.R.Add)
	a, b = a[:len(dst)], b[:len(dst)]
	if nd.Op == SumAdd {
		c := ca + cb
		for i := range dst {
			dst[i] = ((D(a[i]) ^ ma) - ma) + ((D(b[i]) ^ mb) - mb) + c
		}
		return
	}
	for i := range dst {
		dst[i] = (((D(a[i]) ^ ma) - ma) + ca) * (((D(b[i]) ^ mb) - mb) + cb)
	}
}

// evalVC is evalVV with a literal right operand.
//
//bipie:nobce
func evalVC[D, A word](nd *SumNode, dst []D, a []A) {
	ma := signMask[D](nd.L.Neg)
	ca, cb := D(nd.L.Add), D(nd.R.Add)
	a = a[:len(dst)]
	if nd.Op == SumAdd {
		c := ca + cb
		for i := range dst {
			dst[i] = ((D(a[i]) ^ ma) - ma) + c
		}
		return
	}
	for i := range dst {
		dst[i] = (((D(a[i]) ^ ma) - ma) + ca) * cb
	}
}

// The division kernels work on int64 values held in lane-8 vectors. A zero
// divisor yields zero (the engine's guarded divide), and MinInt64 / -1
// wraps to MinInt64 as Go defines it.

//bipie:nobce
func divVV(dst, a, b []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = uint64(divGuarded(int64(a[i]), int64(b[i])))
	}
}

//bipie:nobce
func divVC(dst, a []uint64, c int64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = uint64(divGuarded(int64(a[i]), c))
	}
}

//bipie:nobce
func divCV(dst []uint64, c int64, b []uint64) {
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = uint64(divGuarded(c, int64(b[i])))
	}
}

//bipie:inline
func divGuarded(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	return x / y
}
