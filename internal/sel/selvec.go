// Package sel implements BIPie's selection operators (paper §4): the
// compacting operator (index-vector and physical modes), gather selection
// fused with bit unpacking, and selection by special group assignment. All
// kernels are branch-free with respect to the filter result, so the CPU
// pipeline never stalls on data-dependent branches (paper §4, "the selection
// operator avoids conditional branching dependent on the filter result").
//
//bipie:kernelpkg
package sel

import (
	"encoding/binary"

	"bipie/internal/simd"
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
	v := make(ByteVec, simd.PadToWord(n))
	for i := 0; i < n; i++ {
		v[i] = Selected
	}
	return v[:n]
}

// CountSelected counts non-zero bytes — the number of rows the filter kept.
// The engine computes batch selectivity from it to choose a selection
// strategy per batch (paper §3). It processes 8 lanes per step.
//
// The moving-slice walk keeps both the word loop and the byte tail free
// of bounds checks (the loop conditions pin every access).
//
//bipie:kernel
//bipie:nobce
func (v ByteVec) CountSelected() int {
	n := 0
	d := v
	for len(d) >= 8 {
		n += simd.NonZeroByteCount(simd.LoadBytes(d, 0))
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

// Selectivity returns the fraction of rows selected, in [0, 1].
func (v ByteVec) Selectivity() float64 {
	if len(v) == 0 {
		return 1
	}
	return float64(v.CountSelected()) / float64(len(v))
}

// IndexVec is a selection index vector (paper §4): the ordinal positions of
// qualifying rows within a batch, in increasing order. int32 suffices
// because batches have at most 4096 rows; the paper's AVX2 gather also
// consumes 32-bit indices.
type IndexVec []int32
