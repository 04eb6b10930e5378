package agg

import "bipie/internal/bitpack"

// ReduceSum is the SUM kernel of StrategyReduce: the total of an unpacked
// column's values, wrapping modulo 2⁶⁴ as the row loops do. A plan with one
// group has no group ids, so there is no accumulator for a row to index:
// four independent sums stay in registers, and no row waits on the store
// the previous row made to the same accumulator (the chain ScalarSum's
// one-group case is, §5.1).
//
//bipie:kernel
func ReduceSum(vals *bitpack.Unpacked) int64 {
	switch vals.WordSize {
	case 1:
		return reduceSum(vals.U8)
	case 2:
		return reduceSum(vals.U16)
	case 4:
		return reduceSum(vals.U32)
	default:
		return reduceSum(vals.U64)
	}
}

// reduceSum is ReduceSum's width-specialized loop, one instantiation per
// word size. Four values a step go to four accumulators; the tail of fewer
// than four joins the first. The step's operand reslice keeps the one
// bounds check the prover leaves (baseline-accepted): it costs a compare a
// step, where shrinking vs itself costs the pointer guard of a reslice
// that may end at the array's end, and indexing vs[i+3] four checks.
//
//bipie:kernel
//bipie:nobce
func reduceSum[T uint8 | uint16 | uint32 | uint64](vs []T) int64 {
	var s0, s1, s2, s3 uint64
	n := len(vs) &^ 3
	for i := 0; i < n; i += 4 {
		v := vs[i : i+4 : i+4]
		s0 += uint64(v[0])
		s1 += uint64(v[1])
		s2 += uint64(v[2])
		s3 += uint64(v[3])
	}
	for _, v := range vs[n:] {
		s0 += uint64(v)
	}
	return int64(s0 + s1 + s2 + s3)
}

// ReduceSumMasked is ReduceSum over the rows mask keeps (the low bit of a
// row's mask byte, as the compaction kernels read it): a Reduce plan's
// special group (paper §4.3). With one group there is no id to map a
// rejected row to, so the selection byte vector itself is the group map —
// every row is summed, each times its row's mask bit, and a batch that
// keeps most rows is never compacted. mask is at least as long as vals.
//
//bipie:kernel
func ReduceSumMasked(vals *bitpack.Unpacked, mask []byte) int64 {
	switch vals.WordSize {
	case 1:
		return reduceSumMasked(vals.U8, mask)
	case 2:
		return reduceSumMasked(vals.U16, mask)
	case 4:
		return reduceSumMasked(vals.U32, mask)
	default:
		return reduceSumMasked(vals.U64, mask)
	}
}

// reduceSumMasked is ReduceSumMasked's width-specialized loop: reduceSum's
// four accumulators, eight rows a step, each value multiplied by its row's
// mask bit, so no row branches (the multiply is one instruction where
// widening the bit to an AND mask is two). Pinning both slices to one
// length and capacity lets the step's values reslice — the one bounds check
// left in the loop, as in reduceSum (baseline-accepted, with the pin) —
// prove the mask's; the loop then keeps every operand in a register.
//
//bipie:kernel
//bipie:nobce
func reduceSumMasked[T uint8 | uint16 | uint32 | uint64](vs []T, mask []byte) int64 {
	var s0, s1, s2, s3 uint64
	n := len(vs)
	vs, mask = vs[:n:n], mask[:n:n]
	for i := 0; i+8 <= n; i += 8 {
		v, m := vs[i:i+8:i+8], mask[i:i+8:i+8]
		s0 += uint64(v[0]) * uint64(m[0]&1)
		s1 += uint64(v[1]) * uint64(m[1]&1)
		s2 += uint64(v[2]) * uint64(m[2]&1)
		s3 += uint64(v[3]) * uint64(m[3]&1)
		s0 += uint64(v[4]) * uint64(m[4]&1)
		s1 += uint64(v[5]) * uint64(m[5]&1)
		s2 += uint64(v[6]) * uint64(m[6]&1)
		s3 += uint64(v[7]) * uint64(m[7]&1)
	}
	for i := n &^ 7; i < n; i++ {
		s0 += uint64(vs[i]) * uint64(mask[i]&1)
	}
	return int64(s0 + s1 + s2 + s3)
}
