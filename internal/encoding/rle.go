package encoding

import (
	"sort"

	"bipie/internal/sel"
)

// RLEColumn is a run-length encoded integer column: a sequence of
// (value, count) pairs covering consecutive rows (paper §2.1). Random access
// binary-searches the cumulative row offsets.
type RLEColumn struct {
	values []int64
	// ends[i] is the exclusive row index at which run i ends; ends is
	// strictly increasing and ends[len-1] == Len().
	ends []int
	mn   int64
	mx   int64
}

// NewRLE run-length encodes values.
func NewRLE(values []int64) *RLEColumn { return newRLE(values, scanInts(values)) }

// newRLE cuts values into runs; the statistics pass counted them, so both
// arrays are allocated once at their final size.
func newRLE(values []int64, st intStats) *RLEColumn {
	c := &RLEColumn{mn: st.min, mx: st.max}
	if st.runs == 0 {
		return c
	}
	c.values = make([]int64, 0, st.runs)
	c.ends = make([]int, 0, st.runs)
	for i := 0; i < len(values); {
		v := values[i]
		for i++; i < len(values) && values[i] == v; i++ {
		}
		c.values = append(c.values, v)
		c.ends = append(c.ends, i)
	}
	return c
}

// Kind reports KindRLE.
func (c *RLEColumn) Kind() Kind { return KindRLE }

// Len reports the number of rows.
func (c *RLEColumn) Len() int {
	if len(c.ends) == 0 {
		return 0
	}
	return c.ends[len(c.ends)-1]
}

// Runs reports the number of (value, count) pairs.
func (c *RLEColumn) Runs() int { return len(c.values) }

// Min returns the smallest value.
func (c *RLEColumn) Min() int64 { return c.mn }

// Max returns the largest value.
func (c *RLEColumn) Max() int64 { return c.mx }

// Get decodes row i by binary search over run end offsets.
func (c *RLEColumn) Get(i int) int64 {
	r := sort.SearchInts(c.ends, i+1)
	return c.values[r]
}

// Decode materializes rows [start, start+len(dst)).
func (c *RLEColumn) Decode(dst []int64, start int) {
	checkDecodeRange(c.Len(), start, len(dst))
	if len(dst) == 0 {
		return
	}
	r := sort.SearchInts(c.ends, start+1)
	out := 0
	row := start
	for out < len(dst) {
		v := c.values[r]
		end := c.ends[r]
		for row < end && out < len(dst) {
			dst[out] = v
			out++
			row++
		}
		r++
	}
}

// SizeBytes reports the encoded footprint.
func (c *RLEColumn) SizeBytes() int { return len(c.values)*8 + len(c.ends)*8 + 16 }

// runAt returns the index of the run containing row i — the smallest r
// with ends[r] > i. Hand-rolled binary search so the run-domain kernels
// below stay closure-free (sort.Search takes a func and would defeat
// inlining in the per-batch path).
func (c *RLEColumn) runAt(i int) int {
	lo, hi := 0, len(c.ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ends[mid] <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RunCmp selects the comparison a run-domain kernel evaluates. Thresholds
// are in value space: RLE stores raw values, so unlike the bit-packed
// kernels no frame-of-reference translation applies.
type RunCmp uint8

const (
	// RunLE selects runs with value <= t.
	RunLE RunCmp = iota
	// RunGE selects runs with value >= t.
	RunGE
	// RunEQ selects runs with value == t.
	RunEQ
	// RunNE selects runs with value != t.
	RunNE
)

// ZoneBounds returns the min and max value of rows [start, start+n) at run
// granularity — the RLE analogue of the bit-packed column's zone maps,
// computed on demand from the runs overlapping the range. A batch covered
// by k runs costs O(k + log runs), so for genuinely runny data this is far
// cheaper than the batch it may prove skippable.
//
//bipie:kernel
func (c *RLEColumn) ZoneBounds(start, n int) (mn, mx int64) {
	checkDecodeRange(c.Len(), start, n)
	if n == 0 {
		return 0, 0
	}
	end := start + n
	r := c.runAt(start)
	mn = c.values[r]
	mx = mn
	for c.ends[r] < end {
		r++
		v := c.values[r]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// CmpSpans evaluates value OP t over rows [start, start+n) once per run —
// never per row — and writes the qualifying rows as batch-relative spans
// into dst, returning the span count. Adjacent qualifying runs merge, so
// the output is sorted, disjoint, and maximal; n/2+1 slots always suffice.
//
//bipie:kernel
func (c *RLEColumn) CmpSpans(dst []sel.Span, op RunCmp, t int64, start, n int) int {
	checkDecodeRange(c.Len(), start, n)
	if n == 0 {
		return 0
	}
	end := start + n
	r := c.runAt(start)
	row := start
	k := 0
	open := false
	spanStart := 0
	for row < end {
		runEnd := c.ends[r]
		if runEnd > end {
			runEnd = end
		}
		v := c.values[r]
		var hit bool
		switch op {
		case RunLE:
			hit = v <= t
		case RunGE:
			hit = v >= t
		case RunEQ:
			hit = v == t
		default: // RunNE
			hit = v != t
		}
		if hit {
			if !open {
				spanStart = row
				open = true
			}
		} else if open {
			dst[k] = sel.Span{Start: int32(spanStart - start), End: int32(row - start)}
			k++
			open = false
		}
		row = runEnd
		r++
	}
	if open {
		dst[k] = sel.Span{Start: int32(spanStart - start), End: int32(end - start)}
		k++
	}
	return k
}

// SumSpans sums the rows covered by spans (row offsets relative to base) at
// run granularity, value × overlap per run — the fused filter+aggregate
// kernel of the run-domain scan path: qualifying rows contribute to the sum
// without a single row being decoded. Spans must be sorted and disjoint,
// exactly what CmpSpans and sel.IntersectSpans produce.
//
//bipie:kernel
func (c *RLEColumn) SumSpans(base int, spans []sel.Span) int64 {
	if len(spans) == 0 {
		return 0
	}
	first := base + int(spans[0].Start)
	last := base + int(spans[len(spans)-1].End)
	checkDecodeRange(c.Len(), first, last-first)
	var sum int64
	r := c.runAt(first)
	for _, s := range spans {
		lo := base + int(s.Start)
		hi := base + int(s.End)
		if lo >= hi {
			continue
		}
		// Spans are sorted, so the run cursor only moves forward.
		for c.ends[r] <= lo {
			r++
		}
		for {
			seg := c.ends[r]
			if seg > hi {
				seg = hi
			}
			sum += c.values[r] * int64(seg-lo)
			if seg == hi {
				break
			}
			lo = seg
			r++
		}
	}
	return sum
}

// SumRange returns the sum of rows [start, start+n) computed at run
// granularity: value × overlap per run, without decoding any row. This is
// the run-length analogue of operating directly on encoded data — a batch
// covered by k runs costs O(k + log runs) instead of O(batch).
func (c *RLEColumn) SumRange(start, n int) int64 {
	checkDecodeRange(c.Len(), start, n)
	if n == 0 {
		return 0
	}
	end := start + n
	r := sort.SearchInts(c.ends, start+1)
	var sum int64
	runStart := 0
	if r > 0 {
		runStart = c.ends[r-1]
	}
	for ; r < len(c.ends) && runStart < end; r++ {
		runEnd := c.ends[r]
		lo, hi := runStart, runEnd
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		sum += c.values[r] * int64(hi-lo)
		runStart = runEnd
	}
	return sum
}
