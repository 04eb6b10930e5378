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
