// Package sel implements BIPie's selection operators (paper §4): the
// compacting operator (index-vector and physical modes), gather selection
// fused with bit unpacking, and selection by special group assignment. The
// kernels are branch-free with respect to the filter result, so the CPU
// pipeline does not stall on data-dependent branches (paper §4, "the
// selection operator avoids conditional branching dependent on the filter
// result"), with one deliberate exception: the sparse position loop
// (Positions) branches on whole zero mask words, eight rows at a time. It
// runs only below one kept row in thirty-two, where most words are zero
// and the branch predicts.
//
//bipie:kernelpkg
package sel

import (
	"encoding/binary"

	"bipie/internal/bitpack"
)

// ByteVec is a selection byte vector (paper §4): one byte per row, 0x00 for
// rows removed by the filter (or deleted), 0xFF for selected rows. The
// 0x00/0xFF convention matches how byte-lane SIMD comparisons emit masks, so
// filter kernels produce it for free.
type ByteVec []byte

// Selected is the canonical selected-row marker.
const Selected byte = 0xFF

// NewByteVec allocates an all-selected vector of n rows, padded to a whole
// 8-lane word so kernels can always load full words.
func NewByteVec(n int) ByteVec {
	v := make(ByteVec, (n+7)&^7)
	for i := 0; i < n; i++ {
		v[i] = Selected
	}
	return v[:n]
}

// CountSelected counts non-zero bytes — the number of rows the filter kept,
// from which the engine computes a batch's selectivity to choose its
// selection strategy (paper §3) when the filter did not count them itself:
// a batch whose mask a residual predicate or its deleted rows change after
// the pushed conjuncts, or whose last conjunct runs in a domain that does
// not count as it stores (the packed compares and the fused pass do). It
// processes 8 lanes per step.
//
// The moving-slice walk keeps both the word loop and the byte tail free
// of bounds checks (the loop conditions pin every access). It stays out of
// line so its loop's registers follow from its argument alone, not from
// the engine's batch filter around it.
//
//bipie:kernel
//bipie:nobce
//go:noinline
func (v ByteVec) CountSelected() int {
	n := 0
	d := v
	for len(d) >= 8 {
		n += bitpack.NonZeroByteCount(binary.LittleEndian.Uint64(d))
		d = d[8:]
	}
	for _, b := range d {
		if b != 0 {
			n++
		}
	}
	return n
}

// And intersects v with o in place, eight rows per 64-bit word — how the
// masks of a predicate's conjuncts combine. o is at least as long as v.
//
//bipie:kernel
//bipie:nobce
func (v ByteVec) And(o ByteVec) {
	for ; len(v) >= 8 && len(o) >= 8; v, o = v[8:], o[8:] {
		binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)&binary.LittleEndian.Uint64(o))
	}
	for i := 0; i < len(v) && i < len(o); i++ {
		v[i] &= o[i]
	}
}

// Or unites v with o in place, the disjunction counterpart of And.
//
//bipie:kernel
//bipie:nobce
func (v ByteVec) Or(o ByteVec) {
	for ; len(v) >= 8 && len(o) >= 8; v, o = v[8:], o[8:] {
		binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)|binary.LittleEndian.Uint64(o))
	}
	for i := 0; i < len(v) && i < len(o); i++ {
		v[i] |= o[i]
	}
}

// CmpOp is the comparison of a compare-to-mask kernel: after constant
// translation every pushed or residual comparison is one of these four.
// It is the packed compare's op, so one value names a comparison on
// packed words and on unpacked ones alike.
type CmpOp = bitpack.CmpOp

const (
	CmpLE = bitpack.CmpLE
	CmpGE = bitpack.CmpGE
	CmpEQ = bitpack.CmpEQ
	CmpNE = bitpack.CmpNE
)

// CmpMaskLanes is CmpMaskWords over an unpacked vector, at its word size.
//
//bipie:kernel
func CmpMaskLanes(vec ByteVec, buf *bitpack.Unpacked, t uint64, op CmpOp, first bool) {
	switch buf.WordSize {
	case 1:
		CmpMaskWords(vec, buf.U8, uint8(t), op, first)
	case 2:
		CmpMaskWords(vec, buf.U16, uint16(t), op, first)
	case 4:
		CmpMaskWords(vec, buf.U32, uint32(t), op, first)
	default:
		CmpMaskWords(vec, buf.U64, t, op, first)
	}
}

// CmpMaskWords writes (or ANDs) the 0x00/0xFF mask of vals[i] OP t into
// vec — the one compare-to-mask loop behind the unpack and delta filter
// paths, the residual predicate's leaves, the cost model's cmpmask probes
// and Figure 7's unpack-then-compare column. The int64 instantiation serves
// value-space (delta) predicates; comparison semantics are identical. The
// per-row `if` compiles to a data-dependent branch, not a flag-to-mask
// sequence, so the loop mispredicts near 50% selectivity.
//
//bipie:nobce
func CmpMaskWords[T uint8 | uint16 | uint32 | uint64 | int64](vec ByteVec, vals []T, t T, op CmpOp, first bool) {
	n := len(vec)
	// One reslice up front pins len(vals) to n, so every compare loop
	// below runs without per-row bounds checks on either side.
	vals = vals[:n]
	if first {
		switch op {
		case CmpLE:
			for i := 0; i < n; i++ {
				vec[i] = leMaskT(vals[i], t)
			}
		case CmpGE:
			for i := 0; i < n; i++ {
				vec[i] = ^ltMaskT(vals[i], t)
			}
		case CmpEQ:
			for i := 0; i < n; i++ {
				vec[i] = eqMaskT(vals[i], t)
			}
		default: // CmpNE
			for i := 0; i < n; i++ {
				vec[i] = ^eqMaskT(vals[i], t)
			}
		}
		return
	}
	switch op {
	case CmpLE:
		for i := 0; i < n; i++ {
			vec[i] &= leMaskT(vals[i], t)
		}
	case CmpGE:
		for i := 0; i < n; i++ {
			vec[i] &= ^ltMaskT(vals[i], t)
		}
	case CmpEQ:
		for i := 0; i < n; i++ {
			vec[i] &= eqMaskT(vals[i], t)
		}
	default: // CmpNE
		for i := 0; i < n; i++ {
			vec[i] &= ^eqMaskT(vals[i], t)
		}
	}
}

// CmpMaskSigned writes the mask of int64(a[i]) <= y into vec, y being
// int64(b[i]) or, b nil, t; neg 0xFF complements it. It orders the 8-byte
// lane where a value may be negative: against a threshold, or against the
// other side of a comparison whose difference could wrap.
//
//bipie:kernel
//bipie:nobce
func CmpMaskSigned(vec ByteVec, a, b []uint64, t int64, neg byte) {
	a = a[:len(vec)]
	if b == nil {
		for i, x := range a {
			vec[i] = leMaskT(int64(x), t) ^ neg
		}
		return
	}
	b = b[:len(vec)]
	for i, x := range a {
		vec[i] = leMaskT(int64(x), int64(b[i])) ^ neg
	}
}

func leMaskT[T uint8 | uint16 | uint32 | uint64 | int64](a, b T) byte {
	if a <= b {
		return 0xFF
	}
	return 0
}

func ltMaskT[T uint8 | uint16 | uint32 | uint64 | int64](a, b T) byte {
	if a < b {
		return 0xFF
	}
	return 0
}

func eqMaskT[T uint8 | uint16 | uint32 | uint64 | int64](a, b T) byte {
	if a == b {
		return 0xFF
	}
	return 0
}

// IndexVec is a selection index vector (paper §4): the ordinal positions of
// qualifying rows within a batch, in increasing order. int32 suffices
// because batches have at most 4096 rows; the paper's AVX2 gather also
// consumes 32-bit indices.
type IndexVec []int32
