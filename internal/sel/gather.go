package sel

import "bipie/internal/bitpack"

// Gather selection (paper §4.2) works in two steps: first the selection
// byte vector is turned into a selection index vector with the compacting
// operator in index-vector mode; then, for each index, the word containing
// the bit-packed value is fetched from the encoded column and the value is
// extracted. Only selected values are ever unpacked — the key difference
// from physical compaction, which must unpack the whole batch first.
//
// The paper's implementation fetches with the AVX2 gather instruction
// (VPGATHERDD); here each fetch-extract is an independent two-word windowed
// read, preserving the indexed-read memory access pattern whose cost
// behaviour Figure 7 studies. The window is read whole, whether or not the
// value straddles the word boundary: words[w]>>off | words[w+1]<<1<<(63-off)
// (the split shift leaves nothing of words[w+1] at off 0, where one shift
// by 64 would have to be special-cased), and the pad word bitpack.WordsFor
// reserves — FromWords checks it is there — gives the last value a
// words[w+1]. A test of off+width > 64 instead would be a branch on each
// index's bit offset, which mispredicts as often as the offsets are random.

// GatherSelect unpacks the values of v at the selected positions of the
// batch [start, start+n) into the smallest power-of-two word buffer. It
// first compacts sel into an index vector (reusing idx), then gathers. buf
// and idx may be nil or reused across batches; the resized buf and the index
// vector are returned.
//
//bipie:kernel
func GatherSelect(buf *bitpack.Unpacked, idx IndexVec, v *bitpack.Vector, start, n int, sel ByteVec) (*bitpack.Unpacked, IndexVec) {
	idx = CompactIndices(idx, sel[:n])
	buf = GatherIndices(buf, v, start, idx)
	return buf, idx
}

// GatherIndices unpacks v at positions start+idx[j] for every j, into the
// smallest power-of-two word buffer for v's width. This is the second step
// of gather selection, repeated per column with a shared index vector
// (paper §4.2: "needs to be repeated for every group by column and
// aggregate column involved in the query").
//
//bipie:kernel
//bipie:nobce
func GatherIndices(buf *bitpack.Unpacked, v *bitpack.Vector, start int, idx IndexVec) *bitpack.Unpacked {
	ws := bitpack.WordBytes(v.Bits())
	if buf == nil || buf.WordSize != ws {
		buf = bitpack.NewUnpacked(v.Bits(), len(idx))
	} else {
		buf.Resize(len(idx))
	}
	words, width := v.Words(), uint64(v.Bits())
	base, mask := uint64(start)*width, v.Mask()
	switch ws {
	case 1:
		gatherBody(buf.U8, words, base, width, mask, idx)
	case 2:
		gatherBody(buf.U16, words, base, width, mask, idx)
	case 4:
		gatherBody(buf.U32, words, base, width, mask, idx)
	default:
		gatherBody(buf.U64, words, base, width, mask, idx)
	}
	return buf
}

// gatherBody is GatherIndices' fetch-extract-store loop, one instantiation
// per word size, kept out of line so the loop's registers follow from its
// arguments alone: inlined into GatherIndices, it spills. The shift ^bitPos&63
// is 63-off. dst is resliced to exactly len(idx) so the loop over it proves
// both the store and the idx[j] load; only the indexed words[w]/words[w+1]
// fetches keep their checks (the indices are data — that is the point of a
// gather).
//
//bipie:kernel
//bipie:nobce
//go:noinline
func gatherBody[T uint8 | uint16 | uint32 | uint64](dst []T, words []uint64, base, width, mask uint64, idx IndexVec) {
	dst = dst[:len(idx)]
	for j := range dst {
		bitPos := base + uint64(idx[j])*width
		w := bitPos >> 6
		lo, hi := words[w], words[w+1]
		dst[j] = T((lo>>(bitPos&63) | hi<<1<<(^bitPos&63)) & mask)
	}
}

// GatherSum is a gathered batch's one-group SUM without its vectors: over
// the rows start+idx[j] it returns Σ (x + a)·(y + c), wrapping modulo 2⁶⁴
// as the vector kernels do, with x and y each row's values of the packed
// vectors x and y — y nil reads 0 for every row, so GatherSum(x, nil, a, 1,
// …) is Σ (x + a). Each value is fetched the way gatherBody fetches it, and
// the products are summed as they are formed: no value is stored, and no
// second pass reads one back.
//
//bipie:kernel
func GatherSum(x, y *bitpack.Vector, a, c uint64, start int, idx IndexVec) uint64 {
	xf, yf := newFactor(x, start, a), factor{words: zeroWindow[:], add: c}
	if y != nil {
		yf = newFactor(y, start, c)
	}
	return gatherSumBody(idx, &xf, &yf)
}

// factor is one operand v + add of a gathered product: v is the packed
// value at bit base + i·width of words for batch row i. A zero width and
// mask over zeroWindow make v 0 at every row.
type factor struct {
	words                  []uint64
	base, width, mask, add uint64
}

// zeroWindow is the two-word window of a factor whose value is 0 at every
// row.
var zeroWindow [2]uint64

func newFactor(v *bitpack.Vector, start int, add uint64) factor {
	width := uint64(v.Bits())
	return factor{words: v.Words(), base: uint64(start) * width, width: width, mask: v.Mask(), add: add}
}

// gatherSumBody is GatherSum's fetch-multiply-add loop. The factors come by
// pointer, so their fields ride as memory operands and the loop keeps its
// registers for its cursor, each row's values and the sum: held in
// registers, the two factors' ten fields and the loop's own state are more
// than amd64 has. The cursor is idx itself, resliced, and the loop leaves
// before a reslice would empty it: an index counter landed in CX, which
// the window shifts need, and spilled, and a reslice to empty would need a
// pointer guard. As in gatherBody, only the indexed window fetches keep
// their bounds checks (the indices are data).
//
//bipie:kernel
//bipie:nobce
//go:noinline
func gatherSumBody(idx IndexVec, x, y *factor) (s uint64) {
	for len(idx) > 0 {
		i := uint64(idx[0])
		bx := x.base + i*x.width
		xv := (x.words[bx>>6]>>(bx&63) | x.words[bx>>6+1]<<1<<(^bx&63)) & x.mask
		by := y.base + i*y.width
		yv := (y.words[by>>6]>>(by&63) | y.words[by>>6+1]<<1<<(^by&63)) & y.mask
		s += (xv + x.add) * (yv + y.add)
		if len(idx) < 2 {
			break
		}
		idx = idx[1:]
	}
	return s
}
