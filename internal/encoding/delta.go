package encoding

import "bipie/internal/bitpack"

// deltaBlock is the checkpoint interval for random access into a delta
// stream: every deltaBlock rows the running value is stored explicitly so
// Get only replays at most deltaBlock-1 deltas.
const deltaBlock = 128

// DeltaColumn stores consecutive differences, zig-zag mapped to unsigned and
// bit packed, with per-block checkpoints of the absolute value. It wins for
// sorted or slowly-varying columns (timestamps, sequence numbers).
type DeltaColumn struct {
	n           int
	deltas      *bitpack.Vector // zig-zag encoded diffs, deltas[i] = v[i+1]-v[i]
	checkpoints []int64         // checkpoints[k] = value at row k*deltaBlock
	mn, mx      int64
	// asc/desc record monotonicity, derived from the delta signs at encode
	// (and deserialize) time. A monotonic column's range extremes sit at
	// the range endpoints, which is what lets the scan prune batches from
	// two O(deltaBlock) point lookups instead of a full decode.
	asc, desc bool
}

// zigzag maps a signed delta to unsigned so small magnitudes of either sign
// pack into few bits.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// NewDelta delta-encodes values.
func NewDelta(values []int64) *DeltaColumn { return newDelta(values, scanInts(values)) }

// newDelta packs the zig-zag differences as it computes them, straight from
// values; width, bounds and monotonicity come from the statistics pass.
func newDelta(values []int64, st intStats) *DeltaColumn {
	c := &DeltaColumn{n: len(values), mn: st.min, mx: st.max, asc: st.asc, desc: st.desc}
	c.deltas = packBlocks(max(len(values)-1, 0), st.deltaWidth(), func(block []uint64, start int) {
		prev := values[start]
		for i, v := range values[start+1 : start+1+len(block)] {
			block[i] = zigzag(v - prev)
			prev = v
		}
	})
	if len(values) > 0 {
		c.checkpoints = make([]int64, 0, (len(values)+deltaBlock-1)/deltaBlock)
		for k := 0; k < len(values); k += deltaBlock {
			c.checkpoints = append(c.checkpoints, values[k])
		}
	}
	return c
}

// rebuildMono derives the monotonicity flags of a deserialized column by
// replaying its values a block of deltas at a time. It is derived data, like
// the bit-packed column's zone maps: never serialized. Consecutive values
// are compared, not delta signs: a delta that wraps int64 has the wrong
// sign.
//
//bipie:noescape diffs
func (c *DeltaColumn) rebuildMono() {
	asc, desc := true, true
	if c.n > 0 {
		v := c.checkpoints[0]
		n := c.deltas.Len()
		var diffs [blockRows]uint64
		for start := 0; start < n && (asc || desc); start += blockRows {
			block := diffs[:min(blockRows, n-start)]
			c.deltas.UnpackUint64(block, start)
			for _, d := range block {
				next := v + unzigzag(d)
				asc, desc = asc && next >= v, desc && next <= v
				v = next
			}
		}
	}
	c.asc, c.desc = asc, desc
}

// Monotonic reports whether the column is nondecreasing (asc) and/or
// nonincreasing (desc); a constant column is both, an empty or single-row
// column trivially both.
func (c *DeltaColumn) Monotonic() (asc, desc bool) { return c.asc, c.desc }

// RangeBounds returns the min and max of rows [start, start+n) and whether
// the bounds were metadata-cheap to obtain: true only for monotonic
// columns, whose extremes sit at the range endpoints — two checkpoint
// replays of at most deltaBlock deltas each, independent of n. This is the
// delta column's stand-in for zone maps, feeding the scan's batch-level
// keep-all/keep-none pruning.
func (c *DeltaColumn) RangeBounds(start, n int) (mn, mx int64, ok bool) {
	checkDecodeRange(c.n, start, n)
	if n == 0 || (!c.asc && !c.desc) {
		return 0, 0, false
	}
	a, b := c.Get(start), c.Get(start+n-1)
	if a > b {
		a, b = b, a
	}
	return a, b, true
}

// Kind reports KindDelta.
func (c *DeltaColumn) Kind() Kind { return KindDelta }

// Len reports the number of rows.
func (c *DeltaColumn) Len() int { return c.n }

// Min returns the smallest value.
func (c *DeltaColumn) Min() int64 { return c.mn }

// Max returns the largest value.
func (c *DeltaColumn) Max() int64 { return c.mx }

// Get decodes row i by replaying deltas from the nearest checkpoint.
func (c *DeltaColumn) Get(i int) int64 {
	k := i / deltaBlock
	v := c.checkpoints[k]
	for j := k * deltaBlock; j < i; j++ {
		v += unzigzag(c.deltas.Get(j))
	}
	return v
}

// Decode materializes rows [start, start+len(dst)).
func (c *DeltaColumn) Decode(dst []int64, start int) {
	var diffs []uint64
	if len(dst) > 1 {
		diffs = make([]uint64, len(dst)-1)
	}
	c.DecodeWith(dst, start, diffs)
}

// DecodeWith is Decode with a caller-provided zigzag-diff scratch buffer
// (len ≥ len(dst)-1), so per-batch decoding in scan hot loops stays
// allocation-free.
//
//bipie:kernel
func (c *DeltaColumn) DecodeWith(dst []int64, start int, diffs []uint64) {
	checkDecodeRange(c.n, start, len(dst))
	if len(dst) == 0 {
		return
	}
	v := c.Get(start)
	dst[0] = v
	if len(dst) == 1 {
		return
	}
	diffs = diffs[:len(dst)-1]
	c.deltas.UnpackUint64(diffs, start)
	for i, d := range diffs {
		v += unzigzag(d)
		dst[i+1] = v
	}
}

// SizeBytes reports the encoded footprint.
func (c *DeltaColumn) SizeBytes() int { return c.deltas.SizeBytes() + len(c.checkpoints)*8 + 16 }
