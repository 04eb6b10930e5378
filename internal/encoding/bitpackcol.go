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
func NewBitPack(values []int64) *BitPackColumn {
	mn, mx := minMax(values)
	width := bitpack.BitsFor(uint64(mx - mn))
	offsets := make([]uint64, len(values))
	for i, v := range values {
		offsets[i] = uint64(v - mn)
	}
	c := &BitPackColumn{ref: mn, max: mx, packed: bitpack.MustPack(offsets, width)}
	c.zoneMin, c.zoneMax = zonesFromOffsets(offsets)
	return c
}

// zonesFromOffsets computes per-zone min/max over the pre-pack offsets.
func zonesFromOffsets(offsets []uint64) (mn, mx []uint64) {
	nz := (len(offsets) + ZoneRows - 1) / ZoneRows
	mn = make([]uint64, nz)
	mx = make([]uint64, nz)
	for z := 0; z < nz; z++ {
		lo := z * ZoneRows
		hi := lo + ZoneRows
		if hi > len(offsets) {
			hi = len(offsets)
		}
		zmn, zmx := offsets[lo], offsets[lo]
		for _, o := range offsets[lo+1 : hi] {
			if o < zmn {
				zmn = o
			}
			if o > zmx {
				zmx = o
			}
		}
		mn[z], mx[z] = zmn, zmx
	}
	return mn, mx
}

// rebuildZones recomputes the zone bounds from the packed words, used when a
// column is reconstructed from its serialized form. Load-time only, so the
// scalar Get path is fine.
func (c *BitPackColumn) rebuildZones() {
	n := c.packed.Len()
	nz := (n + ZoneRows - 1) / ZoneRows
	c.zoneMin = make([]uint64, nz)
	c.zoneMax = make([]uint64, nz)
	for z := 0; z < nz; z++ {
		lo := z * ZoneRows
		hi := lo + ZoneRows
		if hi > n {
			hi = n
		}
		zmn, zmx := c.packed.Get(lo), c.packed.Get(lo)
		for i := lo + 1; i < hi; i++ {
			o := c.packed.Get(i)
			if o < zmn {
				zmn = o
			}
			if o > zmx {
				zmx = o
			}
		}
		c.zoneMin[z], c.zoneMax[z] = zmn, zmx
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
