// Package agg implements BIPie's grouped aggregation strategies (paper §5):
// the naive scalar method, Sort-Based SUM aggregation, In-Register
// aggregation, and Multi-Aggregate SUM aggregation — plus the one-group
// reduction, which has no group ids at all. Each strategy is optimal
// for a different region of the (groups, aggregates, bit width, selectivity)
// parameter space; the engine's Aggregate Processor picks between them at
// run time (paper §3).
//
// All SUM kernels operate in the column's frame-of-reference offset space
// (unsigned values produced by unpacking a bit-packed column); the caller
// folds the reference back per group as sum = offsetSum + count*ref when
// assembling results. Group id maps are byte vectors — the paper's §2.2
// simplification of at most 256 groups.
//
//bipie:kernelpkg
package agg

import "bipie/internal/bitpack"

// ScalarCount is the naive single-array COUNT(*) kernel of paper §5.1
// (Algorithm 1 with a count instead of a sum). With very few groups,
// adjacent rows update the same memory location and the store-to-load
// dependency stalls the pipeline — the effect Figure 2 measures.
//
//bipie:kernel
//bipie:nobce
func ScalarCount(groups []uint8, counts []int64) {
	for _, g := range groups {
		counts[g]++
	}
}

// ScalarCountMulti is the unrolled fix from §5.1: two count arrays used
// round-robin for consecutive rows, merged at the end, which breaks the
// dependency chain between adjacent identical group ids.
//
//bipie:kernel
//bipie:nobce
func ScalarCountMulti(groups []uint8, counts []int64) {
	// Group ids are bytes, so 256 fixed stack slots always suffice.
	var c1Arr, c2Arr [256]int64
	c1, c2 := c1Arr[:len(counts)], c2Arr[:len(counts)]
	i := 0
	for ; i+2 <= len(groups); i += 2 {
		c1[groups[i]]++
		c2[groups[i+1]]++
	}
	if i < len(groups) {
		c1[groups[i]]++
	}
	for g := range counts {
		counts[g] += c1[g] + c2[g]
	}
}

// ScalarSum is Algorithm 1 verbatim: sum[group_column[i]] += sum_column[i]
// for one aggregate column in unpacked form.
//
// Each case pre-slices the value column to the row count so the value
// load is check-free; the group-indexed accumulator store is
// data-dependent and stays checked.
//
//bipie:kernel
//bipie:nobce
func ScalarSum(groups []uint8, vals *bitpack.Unpacked, sums []int64) {
	switch vals.WordSize {
	case 1:
		vs := vals.U8[:len(groups)]
		for i, g := range groups {
			sums[g] += int64(vs[i])
		}
	case 2:
		vs := vals.U16[:len(groups)]
		for i, g := range groups {
			sums[g] += int64(vs[i])
		}
	case 4:
		vs := vals.U32[:len(groups)]
		for i, g := range groups {
			sums[g] += int64(vs[i])
		}
	default:
		vs := vals.U64[:len(groups)]
		for i, g := range groups {
			sums[g] += int64(vs[i])
		}
	}
}

// ScalarSumColumnAtATime computes several sums by fully processing one
// aggregate column before moving to the next (§5.1's first multi-sum
// layout). sums[c] is the per-group sums of cols[c]. The paper measures
// this slower than row-at-a-time because each pass re-reads the group
// column and re-touches the accumulators.
//
//bipie:kernel
func ScalarSumColumnAtATime(groups []uint8, cols []*bitpack.Unpacked, sums [][]int64) {
	for c, col := range cols {
		ScalarSum(groups, col, sums[c])
	}
}

// ScalarSumRowAtATime updates all sums for one row before moving to the
// next, with the row-oriented accumulator layout acc[g*nCols+c] the paper
// finds faster (§5.1, Figure 3): one group-id load serves every aggregate
// and the accumulators for a row share cache lines. This is the plain
// variant with a rolled, dynamically-dispatched inner loop; see
// ScalarSumRowAtATimeUnrolled for the specialized one.
//
//bipie:kernel
func ScalarSumRowAtATime(groups []uint8, cols []*bitpack.Unpacked, sums [][]int64) {
	nCols := len(cols)
	if nCols == 0 {
		return
	}
	nGroups := len(sums[0])
	acc := make([]int64, nGroups*nCols) //bipie:allow hotalloc — row-layout scratch, one per batch amortized over all rows
	for i, g := range groups {
		row := acc[int(g)*nCols : int(g)*nCols+nCols]
		for c := 0; c < nCols; c++ {
			row[c] += colVal(cols[c], i)
		}
	}
	for c := 0; c < nCols; c++ {
		for g := 0; g < nGroups; g++ {
			sums[c][g] += acc[g*nCols+c]
		}
	}
}

// ScalarScratch is the mutable per-scan state of the row-at-a-time scalar
// kernels: the row-layout accumulator block, the typed column-view slices
// the width-specialized loops consume, and where each column sits in an
// accumulator row. The engine allocates one per pooled exec state so the
// per-batch scalar path never heap-allocates in steady state; the one-shot
// kernels below build a throwaway one per call.
type ScalarScratch struct {
	acc []int64
	pos []int
	u8  [][]uint8
	u16 [][]uint16
	u32 [][]uint32
	u64 [][]uint64
}

// ensure grows the scratch to fit nGroups×nCols accumulators and nCols
// column views. Setup only — never called from inside a row loop.
func (sc *ScalarScratch) ensure(nGroups, nCols int) {
	if cap(sc.acc) < nGroups*nCols {
		sc.acc = make([]int64, nGroups*nCols)
	}
	if cap(sc.u8) < nCols {
		sc.pos = make([]int, nCols)
		sc.u8 = make([][]uint8, nCols)
		sc.u16 = make([][]uint16, nCols)
		sc.u32 = make([][]uint32, nCols)
		sc.u64 = make([][]uint64, nCols)
	}
}

// rowAtATimeMixed is the mixed-width row loop. The columns are sorted into
// their four word-size classes, each class taking a contiguous stretch of
// the one accumulator row a group owns, and every non-empty class runs the
// width-specialized loop over its stretch — so no element is ever
// dispatched on or widened, whatever mix of words the inputs arrive in,
// and uniform inputs are simply the one-class case. sc.pos records each
// column's place in the row for the caller's fold.
func rowAtATimeMixed(sc *ScalarScratch, groups []uint8, cols []*bitpack.Unpacked, acc []int64) {
	var n [9]int // columns per word size
	for i, c := range cols {
		sc.pos[i] = n[c.WordSize]
		switch c.WordSize {
		case 1:
			sc.u8[n[1]] = c.U8
		case 2:
			sc.u16[n[2]] = c.U16
		case 4:
			sc.u32[n[4]] = c.U32
		default:
			sc.u64[n[8]] = c.U64
		}
		n[c.WordSize]++
	}
	u8, u16, u32, u64 := sc.u8[:n[1]], sc.u16[:n[2]], sc.u32[:n[4]], sc.u64[:n[8]]
	start := [9]int{2: len(u8), 4: len(u8) + len(u16), 8: len(u8) + len(u16) + len(u32)}
	for i, c := range cols {
		sc.pos[i] += start[c.WordSize]
	}
	stride := len(cols)
	rowAtATimeTyped(groups, u8, acc, stride, start[1])
	rowAtATimeTyped(groups, u16, acc, stride, start[2])
	rowAtATimeTyped(groups, u32, acc, stride, start[4])
	rowAtATimeTyped(groups, u64, acc, stride, start[8])
}

// rowAtATimeTyped is the width-specialized row loop over one word-size
// class; the compiler instantiates one tight version per element type. A
// group's accumulator row starts at g*stride and this class's columns sit
// at off within it. Column views are pre-sliced to the row count so the
// value loads carry no bounds checks; the group-indexed accumulator stores
// are data-dependent and stay checked.
//
//bipie:nobce
func rowAtATimeTyped[T uint8 | uint16 | uint32 | uint64](groups []uint8, cols [][]T, acc []int64, stride, off int) {
	nCols := len(cols)
	n := len(groups)
	switch nCols {
	case 0:
	case 1:
		c0 := cols[0][:n]
		for i, g := range groups {
			acc[int(g)*stride+off] += int64(c0[i])
		}
	case 2:
		c0, c1 := cols[0][:n], cols[1][:n]
		for i, g := range groups {
			base := int(g)*stride + off
			acc[base] += int64(c0[i])
			acc[base+1] += int64(c1[i])
		}
	case 3:
		c0, c1, c2 := cols[0][:n], cols[1][:n], cols[2][:n]
		for i, g := range groups {
			base := int(g)*stride + off
			acc[base] += int64(c0[i])
			acc[base+1] += int64(c1[i])
			acc[base+2] += int64(c2[i])
		}
	case 4:
		c0, c1, c2, c3 := cols[0][:n], cols[1][:n], cols[2][:n], cols[3][:n]
		for i, g := range groups {
			base := int(g)*stride + off
			acc[base] += int64(c0[i])
			acc[base+1] += int64(c1[i])
			acc[base+2] += int64(c2[i])
			acc[base+3] += int64(c3[i])
		}
	case 5:
		c0, c1, c2, c3, c4 := cols[0][:n], cols[1][:n], cols[2][:n], cols[3][:n], cols[4][:n]
		for i, g := range groups {
			base := int(g)*stride + off
			acc[base] += int64(c0[i])
			acc[base+1] += int64(c1[i])
			acc[base+2] += int64(c2[i])
			acc[base+3] += int64(c3[i])
			acc[base+4] += int64(c4[i])
		}
	default:
		for i, g := range groups {
			base := int(g)*stride + off
			for c := 0; c < nCols; c++ {
				acc[base+c] += int64(cols[c][i])
			}
		}
	}
}

// ScalarSumRowAtATimeUnrolled is the row-at-a-time variant with the inner
// loop over columns unrolled and specialized (the fastest series in
// Figure 3): each word size present among the columns gets a
// width-specialized generic instantiation with no per-element dispatch,
// the equivalent of the paper's template-generated kernels.
//
//bipie:kernel
func ScalarSumRowAtATimeUnrolled(groups []uint8, cols []*bitpack.Unpacked, sums [][]int64) {
	var sc ScalarScratch
	ScalarSumRowAtATimeInto(&sc, groups, cols, sums)
}

// ScalarSumRowAtATimeInto is ScalarSumRowAtATimeUnrolled drawing its
// accumulator block and column views from caller-owned scratch — the form
// the engine's pooled exec path uses so the per-batch scalar strategy
// performs zero steady-state heap allocations.
//
//bipie:kernel
func ScalarSumRowAtATimeInto(sc *ScalarScratch, groups []uint8, cols []*bitpack.Unpacked, sums [][]int64) {
	nCols := len(cols)
	if nCols == 0 {
		return
	}
	nGroups := len(sums[0])
	sc.ensure(nGroups, nCols)
	acc := sc.acc[:nGroups*nCols]
	for i := range acc {
		acc[i] = 0
	}
	rowAtATimeMixed(sc, groups, cols, acc)
	for c := 0; c < nCols; c++ {
		for g := 0; g < nGroups; g++ {
			sums[c][g] += acc[g*nCols+sc.pos[c]]
		}
	}
}

// colVal reads one element of an unpacked column as int64. Kept small so it
// inlines into the row loops above (bipiegc asserts it stays inlinable).
//
//bipie:inline
func colVal(u *bitpack.Unpacked, i int) int64 {
	switch u.WordSize {
	case 1:
		return int64(u.U8[i])
	case 2:
		return int64(u.U16[i])
	case 4:
		return int64(u.U32[i])
	default:
		return int64(u.U64[i])
	}
}
