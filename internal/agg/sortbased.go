package agg

import "bipie/internal/bitpack"

// SortBased implements Sort-Based SUM Aggregation (paper §5.2): row indices
// within a batch are bucket-sorted by group id, then sums are computed one
// aggregate column at a time, one group at a time, by gathering the
// column's bit-packed values through the sorted indices. Decoding,
// selection, and aggregation happen together in one unit — this is the only
// strategy that consumes aggregate columns in their raw packed form.
//
// The sort cost is fixed regardless of the number of aggregates, so the
// per-aggregate cost falls as aggregates are added (Table 2), making the
// strategy a good fit for low selectivity combined with many aggregates.
//
// The struct splits along the engine's plan/exec line: numGroups and skip
// are plan configuration (chosen per segment from metadata), while
// SortScratch is the mutable per-scan state. A SortBased therefore lives on
// the execution side — one per concurrent scan, recycled through the
// engine's exec-state pool — and the plan records only the two integers
// needed to construct it.
type SortBased struct {
	numGroups int
	skip      int // group id excluded from aggregation (special group), or -1
	scratch   SortScratch
}

// SortScratch is the mutable per-scan state of a sort-based aggregation:
// the counting-pass results, bucket layout, sorted row indices, and the
// dual even/odd counters and cursors Prepare uses against same-address
// write conflicts. It is allocated once per scan so the per-batch sort
// never heap-allocates, and must never be shared between concurrent scans.
type SortScratch struct {
	counts []int64
	starts []int32 // bucket start offset per group, len numGroups+1
	sorted []int32 // row indices sorted (bucketed) by group id
	// Per-bucket counting and cursor scratch for Prepare.
	even, odd       []int32
	evenCur, oddCur []int32
}

// NewSortScratch allocates the per-scan scratch for a numGroups-group
// sort-based aggregation.
func NewSortScratch(numGroups int) SortScratch {
	return SortScratch{
		counts:  make([]int64, numGroups),
		starts:  make([]int32, numGroups+1),
		even:    make([]int32, numGroups),
		odd:     make([]int32, numGroups),
		evenCur: make([]int32, numGroups),
		oddCur:  make([]int32, numGroups),
	}
}

// NewSortBased prepares a reusable sorter for numGroups groups. skipGroup
// is the special group id whose rows are rejected during aggregation (paper
// §5.2: "in the case of selection by special group assignment, the rows are
// rejected during the sorting"), or -1 when every group is real.
func NewSortBased(numGroups, skipGroup int) *SortBased {
	return &SortBased{numGroups: numGroups, skip: skipGroup, scratch: NewSortScratch(numGroups)}
}

// Prepare bucket-sorts the batch's row indices by group id. groups[i] is
// the group of batch row i when idx is nil; otherwise the batch rows are
// idx[i] (a selection index vector from gather or compacting selection,
// whose rows were excluded before sorting) with groups[i] their group ids.
//
// The counting pass is the COUNT(*) the query would need anyway and is
// reused as such (Counts). Both passes use two counters per bucket — one
// for even and one for odd rows — to avoid the same-address write conflicts
// the paper describes for small group counts; a bucket's even rows occupy
// its front sub-range and odd rows its back sub-range, which is harmless
// because summation is order-insensitive.
//
// The scatter stores are indexed through per-bucket cursors — inherently
// data-dependent, so those stay bounds-checked (baseline-accepted); the
// sequential groups/idx loads are check-free via the loop bound and the
// idx pre-slice.
//
//bipie:kernel
//bipie:nobce
func (s *SortBased) Prepare(groups []uint8, idx []int32) {
	n := len(groups)
	sc := &s.scratch
	even, odd := sc.even, sc.odd
	for g := range even {
		even[g], odd[g] = 0, 0
	}
	i := 0
	for ; i+2 <= n; i += 2 {
		even[groups[i]]++
		odd[groups[i+1]]++
	}
	if i < n {
		even[groups[i]]++
	}
	for g := 0; g < s.numGroups; g++ {
		sc.counts[g] = int64(even[g] + odd[g])
	}

	// Bucket layout: [start | even section | odd section | next start).
	var off int32
	evenCur, oddCur := sc.evenCur, sc.oddCur
	for g := 0; g < s.numGroups; g++ {
		sc.starts[g] = off
		evenCur[g] = off
		oddCur[g] = off + even[g]
		off += even[g] + odd[g]
	}
	sc.starts[s.numGroups] = off

	if cap(sc.sorted) < n {
		sc.sorted = make([]int32, n) //bipie:allow hotalloc — amortized growth, reused across batches
	} else {
		sc.sorted = sc.sorted[:n]
	}
	if idx == nil {
		i = 0
		for ; i+2 <= n; i += 2 {
			g0, g1 := groups[i], groups[i+1]
			sc.sorted[evenCur[g0]] = int32(i)
			evenCur[g0]++
			sc.sorted[oddCur[g1]] = int32(i + 1)
			oddCur[g1]++
		}
		if i < n {
			sc.sorted[evenCur[groups[i]]] = int32(i)
			evenCur[groups[i]]++
		}
	} else {
		idx := idx[:n]
		i = 0
		for ; i+2 <= n; i += 2 {
			g0, g1 := groups[i], groups[i+1]
			sc.sorted[evenCur[g0]] = idx[i]
			evenCur[g0]++
			sc.sorted[oddCur[g1]] = idx[i+1]
			oddCur[g1]++
		}
		if i < n {
			sc.sorted[evenCur[groups[i]]] = idx[i]
			evenCur[groups[i]]++
		}
	}
}

// Counts returns the per-group row counts from the counting pass. The skip
// group's slot holds the number of rejected rows.
func (s *SortBased) Counts() []int64 { return s.scratch.counts }

// AddCounts folds the counting-pass results into dst, omitting the skip
// group.
func (s *SortBased) AddCounts(dst []int64) {
	for g := 0; g < s.numGroups; g++ {
		if g == s.skip {
			continue
		}
		dst[g] += s.scratch.counts[g]
	}
}

// SumPacked adds per-group sums of the bit-packed column v to sums,
// gathering values at segment positions segStart+rowIndex for each sorted
// row index. Decoding happens here, fused with the gather: only rows that
// survived selection are ever unpacked. Each value reads its two-word
// window whole, as sel.GatherIndices does, without a branch on its offset.
//
// The gather is index-driven by construction — the bucket reslice and
// windowed word loads (windowSum) stay bounds-checked (baseline-accepted).
//
//bipie:kernel
//bipie:nobce
func (s *SortBased) SumPacked(v *bitpack.Vector, segStart int, sums []int64) {
	words := v.Words()
	width := uint64(v.Bits())
	mask := v.Mask()
	base := uint64(segStart) * width
	sc := &s.scratch
	for g := 0; g < s.numGroups; g++ {
		if g == s.skip {
			continue
		}
		sums[g] += int64(windowSum(words, base, width, mask, sc.sorted[sc.starts[g]:sc.starts[g+1]]))
	}
}

// windowSum is SumPacked's loop over one group's rows, out of line so its
// registers follow from its arguments alone: spelled out inside SumPacked,
// the group loop's state spills into it. ^bitPos&63 is 63-off.
//
//bipie:kernel
//bipie:nobce
//go:noinline
func windowSum(words []uint64, base, width, mask uint64, rows []int32) uint64 {
	var sum uint64
	for _, row := range rows {
		bitPos := base + uint64(row)*width
		w := bitPos >> 6
		lo, hi := words[w], words[w+1]
		sum += (lo>>(bitPos&63) | hi<<1<<(^bitPos&63)) & mask
	}
	return sum
}

// SumUnpacked adds per-group sums of an already-decoded column indexed by
// the sorted row indices. Used when the aggregate input is a computed
// expression rather than a stored column; 8-byte values are int64 in two's
// complement, so signed expression outputs sum correctly.
//
//bipie:kernel
func (s *SortBased) SumUnpacked(vals *bitpack.Unpacked, sums []int64) {
	sc := &s.scratch
	for g := 0; g < s.numGroups; g++ {
		if g == s.skip {
			continue
		}
		var sum int64
		for _, row := range sc.sorted[sc.starts[g]:sc.starts[g+1]] {
			sum += colVal(vals, int(row))
		}
		sums[g] += sum
	}
}
