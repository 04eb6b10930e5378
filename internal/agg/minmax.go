package agg

import "bipie/internal/bitpack"

// MIN/MAX kernels. The paper's strategies specialize SUM and COUNT (§5);
// extrema are one of the "mechanical and straightforward extensions" of
// §2.2: the same grouped-update loop with the accumulator update swapped
// from add to compare-and-keep. Accumulator slots must be pre-initialized
// with InitMin/InitMax; groups with no rows keep the sentinel and are
// dropped by the result assembly (zero-count groups are never emitted).

// InitMin fills dst with the +infinity sentinel for minimum accumulation.
func InitMin(dst []int64) {
	for i := range dst {
		dst[i] = 1<<63 - 1
	}
}

// InitMax fills dst with the -infinity sentinel for maximum accumulation.
func InitMax(dst []int64) {
	for i := range dst {
		dst[i] = -1 << 63
	}
}

// ScalarMin lowers each group's accumulator to the smallest value seen.
//
//bipie:kernel
func ScalarMin(groups []uint8, vals *bitpack.Unpacked, mins []int64) {
	switch vals.WordSize {
	case 1:
		minTyped(groups, vals.U8, mins)
	case 2:
		minTyped(groups, vals.U16, mins)
	case 4:
		minTyped(groups, vals.U32, mins)
	default:
		minTyped(groups, vals.U64, mins)
	}
}

// ScalarMax raises each group's accumulator to the largest value seen.
//
//bipie:kernel
func ScalarMax(groups []uint8, vals *bitpack.Unpacked, maxs []int64) {
	switch vals.WordSize {
	case 1:
		maxTyped(groups, vals.U8, maxs)
	case 2:
		maxTyped(groups, vals.U16, maxs)
	case 4:
		maxTyped(groups, vals.U32, maxs)
	default:
		maxTyped(groups, vals.U64, maxs)
	}
}

// The typed cores pre-slice vals to the group count so the value load is
// check-free; the group-indexed accumulator access is data-dependent and
// stays checked (baseline-accepted).
//
//bipie:nobce
func minTyped[T uint8 | uint16 | uint32 | uint64](groups []uint8, vals []T, mins []int64) {
	vs := vals[:len(groups)]
	for i, g := range groups {
		if v := int64(vs[i]); v < mins[g] {
			mins[g] = v
		}
	}
}

//bipie:nobce
func maxTyped[T uint8 | uint16 | uint32 | uint64](groups []uint8, vals []T, maxs []int64) {
	vs := vals[:len(groups)]
	for i, g := range groups {
		if v := int64(vs[i]); v > maxs[g] {
			maxs[g] = v
		}
	}
}
