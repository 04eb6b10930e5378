package expr

import "bipie/internal/bitpack"

// The program's operator kernels: one tight loop per (operation, destination
// lane, operand lanes), instantiated by the compiler from three generic
// bodies — the counterpart of the paper's template-generated operators.
// An operand narrower than the destination is zero-extended (narrow lanes
// hold exact non-negative values), a wider one truncated (exact modulo the
// destination word), so every loop computes its node modulo 2^(8·lane); the
// builder's range proof is what makes that the exact value in a narrow lane.

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
	if !nd.L.IsConst() {
		a = bufs[nd.L.Node]
	}
	if !nd.R.IsConst() {
		b = bufs[nd.R.Node]
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
	switch dst.WordSize {
	case 1:
		evalInto(nd, dst.U8, a, b)
	case 2:
		evalInto(nd, dst.U16, a, b)
	case 4:
		evalInto(nd, dst.U32, a, b)
	default:
		evalInto(nd, dst.U64, a, b)
	}
}

// evalInto and evalLeft peel the operand lanes off one at a time so the
// three-way specialization is spelled with twelve cases, not sixty-four.
// Sums and products keep literals on the right, so a is never nil.
func evalInto[D word](nd *SumNode, dst []D, a, b *bitpack.Unpacked) {
	if b == nil {
		switch a.WordSize {
		case 1:
			evalVC(nd, dst, a.U8)
		case 2:
			evalVC(nd, dst, a.U16)
		case 4:
			evalVC(nd, dst, a.U32)
		default:
			evalVC(nd, dst, a.U64)
		}
		return
	}
	switch a.WordSize {
	case 1:
		evalLeft(nd, dst, a.U8, b)
	case 2:
		evalLeft(nd, dst, a.U16, b)
	case 4:
		evalLeft(nd, dst, a.U32, b)
	default:
		evalLeft(nd, dst, a.U64, b)
	}
}

func evalLeft[D, A word](nd *SumNode, dst []D, a []A, b *bitpack.Unpacked) {
	switch b.WordSize {
	case 1:
		evalVV(nd, dst, a, b.U8)
	case 2:
		evalVV(nd, dst, a, b.U16)
	case 4:
		evalVV(nd, dst, a, b.U32)
	default:
		evalVV(nd, dst, a, b.U64)
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
