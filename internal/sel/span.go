package sel

import (
	"encoding/binary"

	"bipie/internal/bitpack"
)

// Run-domain selection spans. RLE predicates resolve a comparison once per
// run and describe the qualifying rows as half-open row intervals instead of
// per-row mask bytes; the kernels here convert between that run-aligned
// representation and the engine's byte-vector convention, and combine span
// lists without leaving the run domain. A span list is always sorted,
// disjoint, and maximal (no two spans touch), which is what the producing
// kernels (encoding.CmpSpans, IntersectSpans) emit.

// Span is a half-open row interval [Start, End) relative to a batch. int32
// suffices for the same reason IndexVec uses it: batches have at most 4096
// rows.
type Span struct {
	Start, End int32
}

// SpanRows counts the rows a span list covers — the run-domain analogue of
// ByteVec.CountSelected, O(spans) instead of O(rows).
//
//bipie:kernel
//bipie:nobce
func SpanRows(spans []Span) int {
	n := 0
	for _, s := range spans {
		n += int(s.End - s.Start)
	}
	return n
}

// ApplySpans converts a span list into the 0x00/0xFF byte-vector convention
// over all of vec. With first=true it overwrites vec (Selected inside spans,
// 0x00 outside); otherwise it ANDs in by zeroing only the gaps, so earlier
// conjuncts' per-row decisions survive inside spans.
//
// The per-span reslices hoist every bounds check out of the row loops:
// one IsSliceInBounds per span (and one for the tail) instead of one
// IsInBounds per row. The gap and tail loops compile to memclr; the span
// fill stamps eight lanes per store so it runs at store bandwidth too —
// a byte-at-a-time fill is store-port-bound and costs ~8x more.
//
//bipie:kernel
//bipie:nobce
func ApplySpans(vec ByteVec, spans []Span, first bool) {
	selectedWord := bitpack.Broadcast8(Selected)
	row := 0
	for _, s := range spans {
		gap := vec[row:s.Start]
		for i := range gap {
			gap[i] = 0
		}
		if first {
			seg := vec[s.Start:s.End]
			for len(seg) >= 8 {
				binary.LittleEndian.PutUint64(seg, selectedWord)
				seg = seg[8:]
			}
			for i := range seg {
				seg[i] = Selected
			}
		}
		row = int(s.End)
	}
	tail := vec[row:]
	for i := range tail {
		tail[i] = 0
	}
}

// IntersectSpans writes the intersection of two span lists into dst and
// returns the output span count — how a conjunction of run-domain
// predicates combines without materializing a selection vector. dst must
// not alias a or b. The intersection of two maximal lists is maximal, so
// for one batch of n rows n/2+1 output slots always suffice.
//
//bipie:kernel
func IntersectSpans(dst, a, b []Span) int {
	k, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Start
		if b[j].Start > lo {
			lo = b[j].Start
		}
		hi := a[i].End
		if b[j].End < hi {
			hi = b[j].End
		}
		if lo < hi {
			dst[k] = Span{Start: lo, End: hi}
			k++
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return k
}
