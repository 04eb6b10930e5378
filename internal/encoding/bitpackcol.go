package encoding

import (
	"sync"

	"bipie/internal/bitpack"
)

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
	// kernel runs. Taken from the statistics pass at encode time (scanInts)
	// and read off the packed words on deserialize (rebuildZones): they are
	// derived data, so the storage format does not carry them.
	zoneMin, zoneMax []uint64
}

// ZoneRows is the zone-map granularity in rows. It must equal the scan's
// batch window (colstore.BatchRows, compile-asserted there) so a batch's
// bounds are a single zone read.
const ZoneRows = 4096

// NewBitPack encodes values with frame-of-reference bit packing.
func NewBitPack(values []int64) *BitPackColumn { return newBitPack(values, scanInts(values)) }

// newBitPack packs v - min a block at a time, straight from values. The
// zone bounds come from the statistics pass, as values; here they become
// offsets.
func newBitPack(values []int64, st intStats) *BitPackColumn {
	c := &BitPackColumn{ref: st.min, max: st.max, zoneMin: st.zoneMin, zoneMax: st.zoneMax}
	for z := range c.zoneMin {
		c.zoneMin[z] -= uint64(st.min)
		c.zoneMax[z] -= uint64(st.min)
	}
	c.packed = packBlocks(len(values), st.bitPackWidth(), func(block []uint64, start int) {
		for i, v := range values[start : start+len(block)] {
			block[i] = uint64(v - st.min)
		}
	})
	return c
}

// newZones returns the zone-bound arrays of an n-row column: the spare
// pair when it is large enough, else fresh ones.
func newZones(n int) (mn, mx []uint64) {
	nz := (n + ZoneRows - 1) / ZoneRows
	spare.Lock()
	if cap(spare.mn) >= nz {
		mn, mx = spare.mn[:nz], spare.mx[:nz]
		spare.mn, spare.mx = nil, nil
	}
	spare.Unlock()
	if mn == nil {
		mn, mx = make([]uint64, nz), make([]uint64, nz)
	}
	return mn, mx
}

// spare holds the zone arrays of the last column another encoding won
// (ChooseInt), for the next statistics pass: only a bit-packed column keeps
// the arrays it was scanned with.
var spare struct {
	sync.Mutex
	mn, mx []uint64
}

// rebuildZones recomputes the zone bounds of a column reconstructed from
// its serialized form straight from the packed words (Vector.Bounds), one
// zone at a time: no offset is unpacked.
func (c *BitPackColumn) rebuildZones() {
	n := c.packed.Len()
	c.zoneMin, c.zoneMax = newZones(n)
	for z := range c.zoneMin {
		start := z * ZoneRows
		c.zoneMin[z], c.zoneMax[z] = c.packed.Bounds(start, min(ZoneRows, n-start))
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
