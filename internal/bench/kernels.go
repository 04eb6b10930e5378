package bench

import (
	"fmt"
	"strings"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/sel"
	"bipie/internal/workload"
)

// table1 measures gather selection (index build + fused unpack of selected
// values) at the paper's bit widths, 50% selectivity.
func table1(s Sizes) (*Table, error) {
	t := &Table{Title: "gather selection, 50% selectivity (cycles/row)", Head: []string{"bits", "this repo", "paper"}}
	for _, p := range []struct {
		bits  uint8
		paper float64
	}{{5, 1.08}, {10, 1.33}, {20, 1.63}} {
		d := workload.Gen(workload.Spec{Rows: s.Rows, Groups: 8, AggBits: p.bits, NumAggs: 1, Selectivity: 0.5, Seed: int64(p.bits)})
		var buf *bitpack.Unpacked
		var idx sel.IndexVec
		c := measure(s.Rows, func() {
			buf, idx = sel.GatherSelect(buf, idx, d.AggCols[0], 0, s.Rows, d.SelVec)
		})
		t.add(int(p.bits), c, p.paper)
	}
	return t, nil
}

// table2 measures sort-based aggregation with 23-bit packed columns and no
// filter: the sort is a fixed cost per row that amortizes over the sums.
func table2(s Sizes) (*Table, error) {
	paper := map[[2]int]float64{
		{4, 1}: 3.13, {4, 2}: 2.21, {4, 4}: 1.74,
		{8, 1}: 3.59, {8, 2}: 2.49, {8, 4}: 1.89,
		{16, 1}: 3.61, {16, 2}: 2.48, {16, 4}: 1.92,
	}
	t := &Table{Title: "sort-based SUM, 23-bit columns (cycles/row/sum)", Head: []string{"groups", "sums", "this repo", "paper"}}
	for _, groups := range []int{4, 8, 16} {
		for _, sums := range []int{1, 2, 4} {
			d := workload.Gen(workload.Spec{Rows: s.Rows, Groups: groups, AggBits: 23, NumAggs: sums, Selectivity: 1, Seed: int64(groups*10 + sums)})
			sb := agg.NewSortBased(groups, -1)
			acc := make([]int64, groups)
			c := measure(s.Rows, func() {
				sb.Prepare(d.GroupIDs, nil)
				for i := 0; i < sums; i++ {
					sb.SumPacked(d.AggCols[i], 0, acc)
				}
			})
			t.add(groups, sums, c/float64(sums), paper[[2]int{groups, sums}])
		}
	}
	return t, nil
}

// table3 is analytic: the per-group operation counts of the in-register
// kernels beside the paper's AVX2 instruction counts. The absolute numbers
// differ (8-lane SWAR words vs 32-lane registers); the growth with value
// width is the reproduced relationship.
func table3(Sizes) (*Table, error) {
	t := &Table{Title: "in-register ops per group per 32 values", Head: []string{"variant", "input", "SWAR ops (repo)", "AVX2 instrs (paper)"}}
	t.add("COUNT(*)", "-", agg.InRegisterOpsPer32Values(0), 1.5)
	for _, p := range []struct {
		bytes int
		paper float64
	}{{1, 3}, {2, 7}, {4, 12}} {
		t.add("SUM(x)", fmt.Sprintf("%dB", p.bytes), agg.InRegisterOpsPer32Values(p.bytes), p.paper)
	}
	return t, nil
}

// table4 measures multi-aggregate SUM for the paper's element-size mixes,
// 32 groups. Row words counts the 64-bit words of the accumulator row,
// carrier included.
func table4(s Sizes) (*Table, error) {
	t := &Table{Title: "multi-aggregate SUM, 32 groups (cycles/row/sum)", Head: []string{"sizes (bytes)", "sums", "row words", "this repo", "paper"}}
	for ci, tc := range []struct {
		sizes []int
		paper float64
	}{
		{[]int{8, 2}, 1.37},
		{[]int{8, 4, 1}, 1.43},
		{[]int{8, 8, 4, 2}, 0.91},
		{[]int{8, 4, 4, 2, 2}, 0.77},
		{[]int{4, 4, 2, 2, 2}, 0.75},
	} {
		// One column per slot at the width that unpacks to the requested
		// word size.
		cols := make([]*bitpack.Unpacked, len(tc.sizes))
		for i, size := range tc.sizes {
			bits := uint8(size*8 - 1)
			if size == 8 {
				bits = 40
			}
			d := workload.Gen(workload.Spec{Rows: s.Rows, Groups: 32, AggBits: bits, NumAggs: 1, Selectivity: 1, Seed: int64(ci*10 + i)})
			cols[i] = d.AggCols[0].UnpackSmallest(nil, 0, s.Rows)
		}
		groups := workload.Gen(workload.Spec{Rows: s.Rows, Groups: 32, AggBits: 4, Selectivity: 1, Seed: int64(ci)}).GroupIDs
		m, err := agg.NewMultiAgg(32, -1, tc.sizes)
		if err != nil {
			return nil, err
		}
		c := measure(s.Rows, func() {
			m.Accumulate(groups, cols)
			m.Flush()
		})
		label := strings.Trim(strings.ReplaceAll(fmt.Sprint(tc.sizes), " ", "-"), "[]")
		t.add(label, len(tc.sizes), m.RowWords(), c/float64(len(tc.sizes)), tc.paper)
	}
	return t, nil
}

// scalarCounts measures agg.ScalarCount against its two-array unroll on
// one set of group ids.
func scalarCounts(rows, groups int, ids []uint8) (single, multi float64) {
	counts := make([]int64, groups)
	single = measure(rows, func() { agg.ScalarCount(ids, counts) })
	multi = measure(rows, func() { agg.ScalarCountMulti(ids, counts) })
	return single, multi
}

// fig2 measures the same-address update stall of scalar aggregation: with
// very few groups the single-array kernel slows down, and the multi-array
// unroll removes the effect (§5.1).
func fig2(s Sizes) (*Table, error) {
	t := &Table{
		Title: "scalar COUNT vs groups (cycles/row)", Head: []string{"groups", "single array", "multi array"},
		Note: "paper: 2.9 cycles/row at 2 groups vs 1.65 at 6+; multi-array flattens the curve",
	}
	for _, groups := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} {
		d := workload.Gen(workload.Spec{Rows: s.Rows, Groups: groups, AggBits: 4, Selectivity: 1, Seed: int64(groups)})
		single, multi := scalarCounts(s.Rows, groups, d.GroupIDs)
		t.add(groups, single, multi)
	}
	return t, nil
}

// fig3 compares column-at-a-time against row-at-a-time scalar aggregation
// (and its unrolled variant) for 1–5 sums at 32 groups (§5.1).
func fig3(s Sizes) (*Table, error) {
	t := &Table{Title: "scalar SUM layouts, 32 groups (cycles/row/sum)", Head: []string{"sums", "column-at-time", "row-at-time", "row unrolled"}}
	for sums := 1; sums <= 5; sums++ {
		d := workload.Gen(workload.Spec{Rows: s.Rows, Groups: 32, AggBits: 14, NumAggs: sums, Selectivity: 1, Seed: int64(sums)})
		cols := make([]*bitpack.Unpacked, sums)
		acc := make([][]int64, sums)
		for c := range cols {
			cols[c] = d.AggCols[c].UnpackSmallest(nil, 0, s.Rows)
			acc[c] = make([]int64, 32)
		}
		row := []any{sums}
		for _, layout := range []func([]uint8, []*bitpack.Unpacked, [][]int64){
			agg.ScalarSumColumnAtATime, agg.ScalarSumRowAtATime, agg.ScalarSumRowAtATimeUnrolled,
		} {
			row = append(row, measure(s.Rows, func() { layout(d.GroupIDs, cols, acc) })/float64(sums))
		}
		t.add(row...)
	}
	return t, nil
}

// fig5 measures the linear degradation of in-register aggregation with
// group count, and its width sensitivity, with scalar count as reference
// (§5.3).
func fig5(s Sizes) (*Table, error) {
	t := &Table{Title: "in-register aggregation vs groups (cycles/row)", Head: []string{"groups", "count", "sum 1B", "sum 2B", "sum 4B", "scalar count"}}
	for _, groups := range []int{2, 4, 8, 12, 16, 20, 24, 28, 32} {
		gen := func(bits uint8, seed int) ([]uint8, *bitpack.Unpacked) {
			d := workload.Gen(workload.Spec{Rows: s.Rows, Groups: groups, AggBits: bits, NumAggs: 1, Selectivity: 1, Seed: int64(groups + seed)})
			return d.GroupIDs, d.AggCols[0].UnpackSmallest(nil, 0, s.Rows)
		}
		g8, v8 := gen(7, 0)
		g16, v16 := gen(14, 100)
		g32, v32 := gen(28, 200)
		counts := make([]int64, groups)
		sums := make([]int64, groups)
		t.add(groups,
			measure(s.Rows, func() { agg.InRegisterCount(g8, groups, counts) }),
			measure(s.Rows, func() { agg.InRegisterSum8(g8, v8.U8, groups, sums) }),
			measure(s.Rows, func() { agg.InRegisterSum16(g16, v16.U16, groups, sums) }),
			measure(s.Rows, func() { agg.InRegisterSum32(g32, v32.U32, groups, sums) }),
			measure(s.Rows, func() { agg.ScalarCount(g8, counts) }))
	}
	return t, nil
}

// fig7 sweeps gather vs compacting selection over selectivity for the
// paper's bit widths, exposing the per-width crossover (§6.1). Each
// coordinate also measures producing the selection vector both ways — the
// packed-domain compare against unpack-then-compare through the scan's own
// mask kernel; the filter step is selectivity-independent, but keeping it
// in the same sweep shows its share at every point.
func fig7(s Sizes) (*Table, error) {
	t := &Table{
		Title: "selection with unpack, gather vs compact (cycles/row)",
		Head:  []string{"bits", "sel", "gather", "compact", "best", "filter packed", "filter unpack"},
		Note:  "paper crossovers: 2% at 4 bits, 38% at 21 bits",
	}
	for i, width := range []uint8{4, 7, 14, 21} {
		if i > 0 {
			t.add()
		}
		for _, selFrac := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.0} {
			d := workload.Gen(workload.Spec{
				Rows: s.Rows, Groups: 8, AggBits: width, NumAggs: 1,
				Selectivity: selFrac, Seed: int64(width)*1000 + int64(selFrac*100),
			})
			col := d.AggCols[0]
			var gbuf, cbuf, fbuf *bitpack.Unpacked
			var idx sel.IndexVec
			g := measure(s.Rows, func() { gbuf, idx = sel.GatherSelect(gbuf, idx, col, 0, s.Rows, d.SelVec) })
			c := measure(s.Rows, func() { cbuf = sel.CompactSelect(cbuf, col, 0, s.Rows, d.SelVec) })
			vec := make(sel.ByteVec, s.Rows)
			thr := uint64(selFrac * float64(col.Mask()))
			fp := measure(s.Rows, func() { col.CmpLEPacked(vec, 0, thr, false) })
			fu := measure(s.Rows, func() {
				fbuf = col.UnpackSmallest(fbuf, 0, s.Rows)
				sel.CmpMaskLanes(vec, fbuf, thr, sel.CmpLE, true)
			})
			best := "gather"
			if c < g {
				best = "compact"
			}
			t.add(int(width), selFrac, g, c, best, fp, fu)
		}
	}
	return t, nil
}

// compaction measures both compaction modes on one cache-resident batch,
// as the paper specifies.
func compaction(Sizes) (*Table, error) {
	const rows = 4096
	d := workload.Gen(workload.Spec{Rows: rows, Groups: 8, AggBits: 7, NumAggs: 1, Selectivity: 0.5, Seed: 5})
	vals := d.AggCols[0].UnpackSmallest(nil, 0, rows)
	out8 := make([]uint8, rows)
	var idx sel.IndexVec
	t := &Table{
		Title: "compacting operator, one 4096-row batch (cycles/row)", Head: []string{"mode", "this repo"},
		Note: "paper §4.1: 0.4-0.6 cycles/row in cache for both modes",
	}
	t.add("index vector", measure(rows, func() { idx = sel.CompactIndices(idx, d.SelVec) }))
	t.add("physical", measure(rows, func() { sel.CompactU8(out8, vals.U8, d.SelVec) }))
	return t, nil
}

// ablSmallestWord contrasts unpacking a 7-bit column to its smallest word
// (bytes) against always unpacking to uint64 — the §2.2 rule whose payoff
// is downstream lane count and memory traffic.
func ablSmallestWord(s Sizes) (*Table, error) {
	col := workload.Gen(workload.Spec{Rows: s.Rows, Groups: 8, AggBits: 7, NumAggs: 1, Selectivity: 1, Seed: 13}).AggCols[0]
	var buf *bitpack.Unpacked
	dst := make([]uint64, s.Rows)
	t := &Table{Title: "unpack word of a 7-bit column (cycles/row)", Head: []string{"unpack to", "this repo"}}
	t.add("smallest word (1B)", measure(s.Rows, func() { buf = col.UnpackSmallest(buf, 0, s.Rows) }))
	t.add("always uint64", measure(s.Rows, func() { col.UnpackUint64(dst, 0) }))
	return t, nil
}

// ablDualCounters contrasts the sort-based counting pass's even/odd dual
// counters against a single counter per bucket (the §5.2 write-conflict
// fix), at the small group count where conflicts are most frequent.
func ablDualCounters(s Sizes) (*Table, error) {
	const groups = 4
	ids := workload.Gen(workload.Spec{Rows: s.Rows, Groups: groups, AggBits: 4, Selectivity: 1, Seed: 15}).GroupIDs
	sb := agg.NewSortBased(groups, -1)
	var counts, cur [groups]int32
	sorted := make([]int32, s.Rows)
	t := &Table{Title: "sort-based bucket counters, 4 groups (cycles/row)", Head: []string{"counting pass", "this repo"}}
	t.add("dual counters", measure(s.Rows, func() { sb.Prepare(ids, nil) }))
	t.add("single counter", measure(s.Rows, func() {
		counts = [groups]int32{}
		for _, g := range ids {
			counts[g]++
		}
		var off int32
		for g := range cur {
			cur[g] = off
			off += counts[g]
		}
		for r, g := range ids {
			sorted[cur[g]] = int32(r)
			cur[g]++
		}
	}))
	return t, nil
}

// ablSkew reproduces the §5.1 data-skew observation: under a Zipf group
// distribution the single-array scalar kernel stalls on same-address
// updates even with many groups, and the multi-array unroll recovers part
// of the loss.
func ablSkew(s Sizes) (*Table, error) {
	t := &Table{Title: "scalar COUNT under group skew, 32 groups (cycles/row)", Head: []string{"skew", "single array", "multi array"}}
	for _, skew := range []float64{0, 1.5} {
		d := workload.Gen(workload.Spec{Rows: s.Rows, Groups: 32, AggBits: 4, Selectivity: 1, Skew: skew, Seed: 18})
		single, multi := scalarCounts(s.Rows, 32, d.GroupIDs)
		t.add(fmt.Sprint(skew), single, multi)
	}
	return t, nil
}
