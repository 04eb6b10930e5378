package sel

import (
	"encoding/binary"
	"math/bits"

	"bipie/internal/bitpack"
)

// The compacting operator (paper §4.1) takes a selection byte vector and an
// input vector and removes unselected rows. It has two modes:
//
//   - index-vector mode: the output is the ordinal positions of selected
//     rows (CompactIndices);
//   - physical compaction mode: the output is the selected values themselves
//     (CompactU8..CompactU64); this mode requires the input to be unpacked
//     already, with power-of-two element sizes.
//
// Both are branch-free: every row executes the same store-then-advance
// sequence, and the cursor advances by sel[i]&1 (0 or 1), so rejected rows
// are simply overwritten by the next candidate. This is the scalar
// formulation of the SIMD shuffle-table compaction of Schlegel et al. [20];
// with 0/1 increments there is no instruction whose outcome depends on a
// branch predictor seeing the filter result.

// CompactIndices appends the positions of selected rows to dst and returns
// it (index-vector mode). Positions are relative to the batch, i.e. sel[i]
// selected emits int32(i).
//
// The dst[k] store and the final dst[:k] reslice stay bounds-checked:
// the cursor k is data-dependent on the selection bytes, which is beyond
// prove. Both are accepted in the bipiegc baseline.
//
//bipie:kernel
//bipie:nobce
func CompactIndices(dst IndexVec, sel ByteVec) IndexVec {
	dst = grow(dst, len(sel))
	k := 0
	for i := range sel {
		dst[k] = int32(i)
		k += int(sel[i] & 1)
	}
	return dst[:k]
}

// Positions is index-vector mode priced by what the batch keeps: given
// that sel keeps kept rows, it lists their positions with CompactIndices'
// store-every-row loop, or — when sparse says so — with the word-skipping
// loop, whose cost follows the kept rows and the whole zero words it skips.
// Both emit the same positions.
//
//bipie:kernel
func Positions(dst IndexVec, sel ByteVec, kept int) IndexVec {
	if sparse(kept, len(sel)) {
		return sparseIndices(dst, sel)
	}
	return CompactIndices(dst, sel)
}

// sparseIndices is CompactIndices for a mask that keeps few rows. It tests
// eight rows at a time, their mask bytes' low bits as one word, and emits a
// non-zero word's kept rows by trailing-zero count, clearing each as it
// goes. Its one branch is on whole zero words (the inner loop's exit): it
// predicts while most words are zero, which is why Positions takes it
// only below sparse's threshold. A final word shorter than eight rows
// is assembled byte by byte, so no byte past len(sel) is read.
//
// As in CompactIndices, the dst[k] store and the dst[:k] reslice keep
// their bounds checks (baseline-accepted): k is data.
//
//bipie:kernel
//bipie:nobce
func sparseIndices(dst IndexVec, sel ByteVec) IndexVec {
	const lowBits = 0x0101010101010101
	dst = grow(dst, len(sel))
	k := 0
	for i, s := 0, sel; len(s) > 0; i += 8 {
		var w uint64
		if len(s) >= 8 {
			w = binary.LittleEndian.Uint64(s)
			s = s[8:]
		} else {
			for j, b := range s {
				w |= uint64(b) << (8 * j)
			}
			s = nil
		}
		for w &= lowBits; w != 0; w &= w - 1 {
			dst[k] = int32(i + bits.TrailingZeros64(w)>>3)
			k++
		}
	}
	return dst[:k]
}

func grow(dst IndexVec, n int) IndexVec {
	if cap(dst) < n {
		return make(IndexVec, n)
	}
	return dst[:n]
}

// CompactU8 writes selected elements of in to out and returns the number
// written (physical compaction mode, 1-byte elements). out must have
// len(in) capacity.
//
// Ranging over in and a pre-sliced sel leaves only the data-dependent
// out[k] store bounds-checked (baseline-accepted); see CompactIndices.
//
//bipie:kernel
//bipie:nobce
func CompactU8(out, in []uint8, sel ByteVec) int {
	k := 0
	s := sel[:len(in)]
	for i, v := range in {
		out[k] = v
		k += int(s[i] & 1)
	}
	return k
}

// CompactU16 is physical compaction for 2-byte elements.
//
//bipie:kernel
//bipie:nobce
func CompactU16(out, in []uint16, sel ByteVec) int {
	k := 0
	s := sel[:len(in)]
	for i, v := range in {
		out[k] = v
		k += int(s[i] & 1)
	}
	return k
}

// CompactU32 is physical compaction for 4-byte elements.
//
//bipie:kernel
//bipie:nobce
func CompactU32(out, in []uint32, sel ByteVec) int {
	k := 0
	s := sel[:len(in)]
	for i, v := range in {
		out[k] = v
		k += int(s[i] & 1)
	}
	return k
}

// CompactU64 is physical compaction for 8-byte elements.
//
//bipie:kernel
//bipie:nobce
func CompactU64(out, in []uint64, sel ByteVec) int {
	k := 0
	s := sel[:len(in)]
	for i, v := range in {
		out[k] = v
		k += int(s[i] & 1)
	}
	return k
}

// CompactSelect implements compaction selection for an encoded column: it
// unpacks the entire batch [start, start+n) of the packed vector into the
// smallest power-of-two word (the full decode the paper notes this mode
// requires), then physically compacts it in place. The returned Unpacked is
// resized to the number of selected rows.
//
//bipie:kernel
func CompactSelect(buf *bitpack.Unpacked, v *bitpack.Vector, start, n int, sel ByteVec) *bitpack.Unpacked {
	buf = v.UnpackSmallest(buf, start, n)
	var k int
	switch buf.WordSize {
	case 1:
		k = CompactU8(buf.U8, buf.U8, sel)
	case 2:
		k = CompactU16(buf.U16, buf.U16, sel)
	case 4:
		k = CompactU32(buf.U32, buf.U32, sel)
	default:
		k = CompactU64(buf.U64, buf.U64, sel)
	}
	buf.Resize(k)
	return buf
}
