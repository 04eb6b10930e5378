package bench

import (
	"runtime"
	"time"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/engine"
	"bipie/internal/perfstat"
	"bipie/internal/sel"
	"bipie/internal/tpch"
	"bipie/internal/workload"
)

// Table1Row is one measurement of gather selection (paper Table 1).
type Table1Row struct {
	BitWidth     uint8
	CyclesPerRow float64
	PaperCycles  float64
}

// Table1 measures gather selection (index build + fused unpack of selected
// values) at the paper's bit widths, 50% selectivity.
func Table1(rows int) []Table1Row {
	paper := map[uint8]float64{5: 1.08, 10: 1.33, 20: 1.63}
	var out []Table1Row
	for _, width := range []uint8{5, 10, 20} {
		d := workload.Gen(workload.Spec{
			Rows: rows, Groups: 8, AggBits: width, NumAggs: 1,
			Selectivity: 0.5, Seed: int64(width),
		})
		var buf *bitpack.Unpacked
		var idx sel.IndexVec
		c := measure(rows, func() {
			buf, idx = sel.GatherSelect(buf, idx, d.AggCols[0], 0, rows, d.SelVec)
		})
		out = append(out, Table1Row{BitWidth: width, CyclesPerRow: c, PaperCycles: paper[width]})
	}
	return out
}

// Table2Row is one measurement of sort-based SUM aggregation (paper
// Table 2): cycles/row/aggregate for a (groups, sums) combination.
type Table2Row struct {
	Groups          int
	Sums            int
	CyclesPerRowSum float64
	PaperCycles     float64
}

// Table2 measures sort-based aggregation with 23-bit packed columns and no
// filter, the paper's Table 2 setup.
func Table2(rows int) []Table2Row {
	paper := map[[2]int]float64{
		{4, 1}: 3.13, {4, 2}: 2.21, {4, 4}: 1.74,
		{8, 1}: 3.59, {8, 2}: 2.49, {8, 4}: 1.89,
		{16, 1}: 3.61, {16, 2}: 2.48, {16, 4}: 1.92,
	}
	var out []Table2Row
	for _, groups := range []int{4, 8, 16} {
		for _, sums := range []int{1, 2, 4} {
			d := workload.Gen(workload.Spec{
				Rows: rows, Groups: groups, AggBits: 23, NumAggs: sums,
				Selectivity: 1, Seed: int64(groups*10 + sums),
			})
			sb := agg.NewSortBased(groups, -1)
			sumAcc := make([][]int64, sums)
			for i := range sumAcc {
				sumAcc[i] = make([]int64, groups)
			}
			c := measure(rows, func() {
				sb.Prepare(d.GroupIDs, nil)
				for i := 0; i < sums; i++ {
					sb.SumPacked(d.AggCols[i], 0, sumAcc[i])
				}
			})
			out = append(out, Table2Row{
				Groups: groups, Sums: sums,
				CyclesPerRowSum: c / float64(sums),
				PaperCycles:     paper[[2]int{groups, sums}],
			})
		}
	}
	return out
}

// Table3Row compares in-register kernel footprints (paper Table 3).
type Table3Row struct {
	Variant     string
	InputBytes  int // 0 for COUNT(*)
	SwarOps     int // our SWAR register ops per group per 32 values
	PaperInstrs float64
}

// Table3 is analytic: it reports the per-group operation counts of the
// in-register kernels next to the paper's AVX2 instruction counts. The
// absolute numbers differ (8-lane SWAR words vs 32-lane registers); the
// growth with value width is the reproduced relationship.
func Table3() []Table3Row {
	return []Table3Row{
		{"COUNT(*)", 0, agg.InRegisterOpsPer32Values(0), 1.5},
		{"SUM(x)", 1, agg.InRegisterOpsPer32Values(1), 3},
		{"SUM(x)", 2, agg.InRegisterOpsPer32Values(2), 7},
		{"SUM(x)", 4, agg.InRegisterOpsPer32Values(4), 12},
	}
}

// Table4Row is one multi-aggregate size-mix measurement (paper Table 4).
type Table4Row struct {
	Sizes           []int
	RowWords        int // 64-bit words of the accumulator row, carrier included
	CyclesPerRowSum float64
	PaperCycles     float64
}

// Table4 measures Multi-Aggregate SUM for the paper's element-size mixes,
// 32 groups.
func Table4(rows int) []Table4Row {
	cases := []struct {
		sizes []int
		paper float64
	}{
		{[]int{8, 2}, 1.37},
		{[]int{8, 4, 1}, 1.43},
		{[]int{8, 8, 4, 2}, 0.91},
		{[]int{8, 4, 4, 2, 2}, 0.77},
		{[]int{4, 4, 2, 2, 2}, 0.75},
	}
	var out []Table4Row
	for ci, tc := range cases {
		// Generate one column per slot at the width that unpacks to the
		// requested word size.
		cols := make([]*bitpack.Unpacked, len(tc.sizes))
		for i, size := range tc.sizes {
			bits := uint8(size*8 - 1)
			if size == 8 {
				bits = 40
			}
			d := workload.Gen(workload.Spec{
				Rows: rows, Groups: 32, AggBits: bits, NumAggs: 1,
				Selectivity: 1, Seed: int64(ci*10 + i),
			})
			cols[i] = d.AggCols[0].UnpackSmallest(nil, 0, rows)
		}
		groups := workload.Gen(workload.Spec{Rows: rows, Groups: 32, AggBits: 4, Selectivity: 1, Seed: int64(ci)}).GroupIDs
		m, err := agg.NewMultiAgg(32, -1, tc.sizes)
		if err != nil {
			panic(err)
		}
		sums := len(tc.sizes)
		c := measure(rows, func() {
			m.Accumulate(groups, cols)
			m.Flush()
		})
		out = append(out, Table4Row{Sizes: tc.sizes, RowWords: m.RowWords(), CyclesPerRowSum: c / float64(sums), PaperCycles: tc.paper})
	}
	return out
}

// Table5Row is one engine comparison row (paper Table 5).
type Table5Row struct {
	tpch.PublishedResult
	Measured bool
}

// Table5 runs TPC-H Q1 end to end with the BIPie engine and a row-at-a-time
// baseline, normalizes both to clocks/row as the paper does
// (time × clock × cores ÷ rows), and appends them to the published rows.
func Table5(rows int) []Table5Row {
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: rows, Seed: 1})
	if err != nil {
		panic(err)
	}
	cores := runtime.GOMAXPROCS(0)
	hz := perfstat.Hz()

	runOnce := func(fn func()) float64 {
		// Median of several runs, matching the paper's methodology.
		m := perfstat.Time(rows, 100*time.Millisecond, fn)
		return m.Elapsed.Seconds()
	}
	bipieSec := runOnce(func() {
		if _, err := tpch.RunQ1(tbl, engine.Options{}); err != nil {
			panic(err)
		}
	})
	naiveSec := runOnce(func() {
		if _, err := tpch.RunQ1Naive(tbl); err != nil {
			panic(err)
		}
	})

	var out []Table5Row
	for _, r := range tpch.Table5() {
		out = append(out, Table5Row{PublishedResult: r})
	}
	// Nominal scale factor for display: SF1 = 6M lineitems, minimum 1 so
	// sub-SF1 runs don't print as zero.
	sf := (rows + 3_000_000) / 6_000_000
	if sf < 1 {
		sf = 1
	}
	out = append(out, Table5Row{
		PublishedResult: tpch.PublishedResult{
			Engine: "This repo (Go/SWAR BIPie)", ScaleFactor: sf,
			Cores: cores, ClockGHz: hz / 1e9, TimeSec: bipieSec,
			ClocksPerRow: bipieSec * hz * float64(cores) / float64(rows),
			Published:    "now",
		},
		Measured: true,
	})
	out = append(out, Table5Row{
		PublishedResult: tpch.PublishedResult{
			Engine: "This repo (naive row-at-a-time)", ScaleFactor: sf,
			Cores: cores, ClockGHz: hz / 1e9, TimeSec: naiveSec,
			ClocksPerRow: naiveSec * hz * float64(cores) / float64(rows),
			Published:    "now",
		},
		Measured: true,
	})
	return out
}
