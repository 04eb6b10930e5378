package encoding

import "bipie/internal/bitpack"

// BitPackColumn is a frame-of-reference bit-packed integer column: each
// value is stored as the unsigned offset (v - Min) in Width() bits. This is
// the representation the paper's aggregation kernels consume directly; the
// reference is folded back in either during decode or, for SUM, once per
// group at result-output time (sum = packedSum + count*ref).
type BitPackColumn struct {
	ref    int64 // frame of reference, equal to Min()
	max    int64
	packed *bitpack.Vector
	// zoneMin/zoneMax are the per-zone bounds of the packed offsets: entry z
	// covers rows [z*ZoneRows, (z+1)*ZoneRows). They are the batch-granularity
	// analogue of the column-level Min/Max the scan uses for segment
	// elimination, letting a pushed predicate skip whole batches before any
	// kernel runs. Built at encode time and rebuilt on deserialize (they are
	// derived data, so the storage format does not carry them).
	zoneMin, zoneMax []uint64
}

// ZoneRows is the zone-map granularity in rows. It must equal the scan's
// batch window (colstore.BatchRows, compile-asserted there) so a batch's
// bounds are a single zone read.
const ZoneRows = 4096

// NewBitPack encodes values with frame-of-reference bit packing.
func NewBitPack(values []int64) *BitPackColumn { return newBitPack(values, scanInts(values)) }

// newBitPack packs v - min a block at a time, straight from values, folding
// each block into its zone's bounds while the offsets are in hand.
func newBitPack(values []int64, st intStats) *BitPackColumn {
	c := &BitPackColumn{ref: st.min, max: st.max}
	c.zoneMin, c.zoneMax = newZones(len(values))
	c.packed = packBlocks(len(values), st.bitPackWidth(), func(block []uint64, start int) {
		for i, v := range values[start : start+len(block)] {
			block[i] = uint64(v - st.min)
		}
		foldZone(c.zoneMin, c.zoneMax, start, block)
	})
	return c
}

// newZones allocates the zone-bound arrays of an n-row column.
func newZones(n int) (mn, mx []uint64) {
	nz := (n + ZoneRows - 1) / ZoneRows
	return make([]uint64, nz), make([]uint64, nz)
}

// foldZone is the zone builder, at encode time and at load alike: it widens
// the bounds of the zone holding rows [start, start+len(block)) to cover
// block, their packed offsets. Blocks arrive in row order and never
// straddle a zone, so the block at a zone's first row opens its bounds.
func foldZone[T uint8 | uint16 | uint32 | uint64](zoneMin, zoneMax []uint64, start int, block []T) {
	// Compared as uint64 whatever the lane: the compiler has a conditional
	// move for words, and only branches for bytes.
	mn, mx := uint64(block[0]), uint64(block[0])
	for _, v := range block[1:] {
		mn, mx = min(mn, uint64(v)), max(mx, uint64(v))
	}
	z := start / ZoneRows
	if start%ZoneRows != 0 {
		mn, mx = min(mn, zoneMin[z]), max(mx, zoneMax[z])
	}
	zoneMin[z], zoneMax[z] = mn, mx
}

// rebuildZones recomputes the zone bounds from the packed words when a
// column is reconstructed from its serialized form: each block is unpacked
// to its smallest word and handed to the zone builder encode uses.
func (c *BitPackColumn) rebuildZones() {
	n := c.packed.Len()
	c.zoneMin, c.zoneMax = newZones(n)
	var u *bitpack.Unpacked
	for start := 0; start < n; start += blockRows {
		u = c.packed.UnpackSmallest(u, start, min(blockRows, n-start))
		switch u.WordSize {
		case 1:
			foldZone(c.zoneMin, c.zoneMax, start, u.U8)
		case 2:
			foldZone(c.zoneMin, c.zoneMax, start, u.U16)
		case 4:
			foldZone(c.zoneMin, c.zoneMax, start, u.U32)
		default:
			foldZone(c.zoneMin, c.zoneMax, start, u.U64)
		}
	}
}

// ZoneBounds returns conservative min/max packed offsets over the rows
// [start, start+n), aggregated at zone granularity: the true extrema of the
// range lie within [mn, mx]. A range aligned to one zone (the scan's batch
// windows) is a single array read.
func (c *BitPackColumn) ZoneBounds(start, n int) (mn, mx uint64) {
	zlo := start / ZoneRows
	zhi := (start + n - 1) / ZoneRows
	if n <= 0 || zlo < 0 || zhi >= len(c.zoneMin) {
		return 0, uint64(c.max - c.ref) // out of range: column-level bounds
	}
	mn, mx = c.zoneMin[zlo], c.zoneMax[zlo]
	for z := zlo + 1; z <= zhi; z++ {
		if c.zoneMin[z] < mn {
			mn = c.zoneMin[z]
		}
		if c.zoneMax[z] > mx {
			mx = c.zoneMax[z]
		}
	}
	return mn, mx
}

// Kind reports KindBitPack.
func (c *BitPackColumn) Kind() Kind { return KindBitPack }

// Len reports the number of rows.
func (c *BitPackColumn) Len() int { return c.packed.Len() }

// Min returns the smallest value in the column (the frame of reference).
func (c *BitPackColumn) Min() int64 { return c.ref }

// Max returns the largest value in the column.
func (c *BitPackColumn) Max() int64 { return c.max }

// Width returns the packed bit width per value.
func (c *BitPackColumn) Width() uint8 { return c.packed.Bits() }

// Ref returns the frame-of-reference offset added back during decode.
func (c *BitPackColumn) Ref() int64 { return c.ref }

// Packed exposes the underlying packed vector of (v - Ref) offsets for the
// fused selection/aggregation kernels.
func (c *BitPackColumn) Packed() *bitpack.Vector { return c.packed }

// Get decodes row i.
func (c *BitPackColumn) Get(i int) int64 { return c.ref + int64(c.packed.Get(i)) }

// Decode materializes rows [start, start+len(dst)) with a single windowed
// pass that folds the frame of reference back in; no scratch allocation so
// the batch loop stays allocation-free.
func (c *BitPackColumn) Decode(dst []int64, start int) {
	checkDecodeRange(c.Len(), start, len(dst))
	words := c.packed.Words()
	width := uint64(c.packed.Bits())
	mask := c.packed.Mask()
	ref := c.ref
	bitPos := uint64(start) * width
	for i := range dst {
		w := bitPos >> 6
		off := bitPos & 63
		val := words[w] >> off
		if off+width > 64 {
			val |= words[w+1] << (64 - off)
		}
		dst[i] = ref + int64(val&mask)
		bitPos += width
	}
}

// SizeBytes reports the encoded footprint.
func (c *BitPackColumn) SizeBytes() int { return c.packed.SizeBytes() + 16 }
