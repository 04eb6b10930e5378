package bipie_test

// testing.B benchmarks, one per table and figure of the paper's evaluation
// (§6), plus ablations of the design choices DESIGN.md calls out. Each
// benchmark reports cycles/row via ReportMetric alongside the standard
// ns/op, using the calibrated frequency from internal/perfstat.
//
// The full paper-layout sweeps (all selectivities, the 9-combination
// grids) live in cmd/bipie-bench; the benchmarks here cover each artifact's
// representative points so `go test -bench=.` exercises every kernel.

import (
	"bipie"

	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/perfstat"
	"bipie/internal/sel"
	"bipie/internal/tpch"
	"bipie/internal/workload"
)

const benchRows = 1 << 20

// reportCycles attaches the paper's unit to a benchmark result.
func reportCycles(b *testing.B, rowsPerOp int) {
	b.Helper()
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perfstat.CyclesPerRow(time.Duration(nsPerOp), rowsPerOp), "cycles/row")
}

// BenchmarkTable1GatherSelection reproduces Table 1: gather selection with
// fused unpack at bit widths 5, 10, 20 and 50% selectivity.
func BenchmarkTable1GatherSelection(b *testing.B) {
	for _, width := range []uint8{5, 10, 20} {
		b.Run(fmt.Sprintf("bits%d", width), func(b *testing.B) {
			d := workload.Gen(workload.Spec{Rows: benchRows, Groups: 8, AggBits: width, NumAggs: 1, Selectivity: 0.5, Seed: 1})
			var buf *bitpack.Unpacked
			var idx sel.IndexVec
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, idx = sel.GatherSelect(buf, idx, d.AggCols[0], 0, benchRows, d.SelVec)
			}
			reportCycles(b, benchRows)
		})
	}
}

// BenchmarkTable2SortBased reproduces Table 2: sort-based SUM over 23-bit
// columns for (groups, sums) combinations.
func BenchmarkTable2SortBased(b *testing.B) {
	for _, groups := range []int{4, 8, 16} {
		for _, sums := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("g%ds%d", groups, sums), func(b *testing.B) {
				d := workload.Gen(workload.Spec{Rows: benchRows, Groups: groups, AggBits: 23, NumAggs: sums, Selectivity: 1, Seed: 2})
				sb := agg.NewSortBased(groups, -1)
				acc := make([]int64, groups)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sb.Prepare(d.GroupIDs, nil)
					for s := 0; s < sums; s++ {
						sb.SumPacked(d.AggCols[s], 0, acc)
					}
				}
				reportCycles(b, benchRows)
			})
		}
	}
}

// BenchmarkTable3InRegisterVariants measures the four in-register kernels
// whose instruction budgets Table 3 tabulates (count, sum of 1/2/4-byte
// values), at 8 groups.
func BenchmarkTable3InRegisterVariants(b *testing.B) {
	const groups = 8
	d8 := workload.Gen(workload.Spec{Rows: benchRows, Groups: groups, AggBits: 7, NumAggs: 1, Selectivity: 1, Seed: 3})
	d16 := workload.Gen(workload.Spec{Rows: benchRows, Groups: groups, AggBits: 14, NumAggs: 1, Selectivity: 1, Seed: 4})
	d32 := workload.Gen(workload.Spec{Rows: benchRows, Groups: groups, AggBits: 28, NumAggs: 1, Selectivity: 1, Seed: 5})
	v8 := d8.AggCols[0].UnpackSmallest(nil, 0, benchRows)
	v16 := d16.AggCols[0].UnpackSmallest(nil, 0, benchRows)
	v32 := d32.AggCols[0].UnpackSmallest(nil, 0, benchRows)
	counts := make([]int64, groups)
	sums := make([]int64, groups)
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg.InRegisterCount(d8.GroupIDs, groups, counts)
		}
		reportCycles(b, benchRows)
	})
	b.Run("sum1B", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg.InRegisterSum8(d8.GroupIDs, v8.U8, groups, sums)
		}
		reportCycles(b, benchRows)
	})
	b.Run("sum2B", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg.InRegisterSum16(d16.GroupIDs, v16.U16, groups, sums)
		}
		reportCycles(b, benchRows)
	})
	b.Run("sum4B", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg.InRegisterSum32(d32.GroupIDs, v32.U32, groups, sums)
		}
		reportCycles(b, benchRows)
	})
}

// BenchmarkTable4MultiAggregate reproduces Table 4: multi-aggregate SUM for
// the paper's element-size mixes at 32 groups.
func BenchmarkTable4MultiAggregate(b *testing.B) {
	mixes := [][]int{{8, 2}, {8, 4, 1}, {8, 8, 4, 2}, {8, 4, 4, 2, 2}, {4, 4, 2, 2, 2}}
	for _, sizes := range mixes {
		name := ""
		for i, s := range sizes {
			if i > 0 {
				name += "-"
			}
			name += fmt.Sprint(s)
		}
		b.Run(name, func(b *testing.B) {
			cols := make([]*bitpack.Unpacked, len(sizes))
			for i, size := range sizes {
				bits := uint8(size*8 - 1)
				if size == 8 {
					bits = 40
				}
				d := workload.Gen(workload.Spec{Rows: benchRows, Groups: 32, AggBits: bits, NumAggs: 1, Selectivity: 1, Seed: int64(i)})
				cols[i] = d.AggCols[0].UnpackSmallest(nil, 0, benchRows)
			}
			groups := workload.Gen(workload.Spec{Rows: benchRows, Groups: 32, AggBits: 4, Selectivity: 1, Seed: 9}).GroupIDs
			m, err := agg.NewMultiAgg(32, -1, sizes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Accumulate(groups, cols)
				m.Flush()
			}
			reportCycles(b, benchRows)
		})
	}
}

// BenchmarkTable5TPCHQ1 reproduces Table 5's measured row: TPC-H Query 1
// end to end on the BIPie engine, with the naive engine for the speedup
// baseline.
func BenchmarkTable5TPCHQ1(b *testing.B) {
	const rows = 1 << 21
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bipie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpch.RunQ1(tbl, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, rows)
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpch.RunQ1Naive(tbl); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, rows)
	})
}

// BenchmarkConcurrentQ1 measures the concurrent-serving path the
// plan/exec split exists for: one shared Prepared TPC-H Q1 served from
// every GOMAXPROCS goroutine at once, each Run borrowing pooled exec state
// (Parallelism: 1 so parallelism comes from the callers, as in a serving
// tier, not from intra-query splitting). The reprepare variant builds the
// plan on every call — the one-shot Run path — so the delta is the cost
// the Prepared amortizes.
func BenchmarkConcurrentQ1(b *testing.B) {
	const rows = 1 << 21
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.Options{Parallelism: 1}
	b.Run("prepared", func(b *testing.B) {
		p, err := engine.Prepare(tbl, tpch.Q1(), opts)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := p.Run(ctx); err != nil {
					b.Error(err)
					return
				}
			}
		})
		reportCycles(b, rows)
	})
	b.Run("reprepare", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := engine.Run(tbl, tpch.Q1(), opts); err != nil {
					b.Error(err)
					return
				}
			}
		})
		reportCycles(b, rows)
	})
}

// BenchmarkFig2ScalarCount reproduces Figure 2's contrast: scalar COUNT
// with a single accumulator array vs the multi-array unroll, at the group
// counts where the same-address stall bites (2) and vanishes (6+).
func BenchmarkFig2ScalarCount(b *testing.B) {
	for _, groups := range []int{2, 6, 32} {
		d := workload.Gen(workload.Spec{Rows: benchRows, Groups: groups, AggBits: 4, Selectivity: 1, Seed: 6})
		counts := make([]int64, groups)
		b.Run(fmt.Sprintf("groups%d/single", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg.ScalarCount(d.GroupIDs, counts)
			}
			reportCycles(b, benchRows)
		})
		b.Run(fmt.Sprintf("groups%d/multi", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg.ScalarCountMulti(d.GroupIDs, counts)
			}
			reportCycles(b, benchRows)
		})
	}
}

// BenchmarkFig3ScalarSumLayouts reproduces Figure 3: column-at-a-time vs
// row-at-a-time (± unroll) for 3 sums at 32 groups.
func BenchmarkFig3ScalarSumLayouts(b *testing.B) {
	const sums = 3
	d := workload.Gen(workload.Spec{Rows: benchRows, Groups: 32, AggBits: 14, NumAggs: sums, Selectivity: 1, Seed: 7})
	cols := make([]*bitpack.Unpacked, sums)
	for c := range cols {
		cols[c] = d.AggCols[c].UnpackSmallest(nil, 0, benchRows)
	}
	acc := make([][]int64, sums)
	for c := range acc {
		acc[c] = make([]int64, 32)
	}
	for name, fn := range map[string]func([]uint8, []*bitpack.Unpacked, [][]int64){
		"columnAtATime": agg.ScalarSumColumnAtATime,
		"rowAtATime":    agg.ScalarSumRowAtATime,
		"rowUnrolled":   agg.ScalarSumRowAtATimeUnrolled,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(d.GroupIDs, cols, acc)
			}
			reportCycles(b, benchRows)
		})
	}
}

// BenchmarkFig5InRegister reproduces Figure 5's group-count sweep for the
// in-register count kernel at its endpoints and midpoint.
func BenchmarkFig5InRegister(b *testing.B) {
	for _, groups := range []int{2, 16, 32} {
		b.Run(fmt.Sprintf("groups%d", groups), func(b *testing.B) {
			d := workload.Gen(workload.Spec{Rows: benchRows, Groups: groups, AggBits: 7, Selectivity: 1, Seed: 8})
			counts := make([]int64, groups)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.InRegisterCount(d.GroupIDs, groups, counts)
			}
			reportCycles(b, benchRows)
		})
	}
}

// BenchmarkFig7SelectionStrategies reproduces Figure 7's gather/compact
// contrast at a low and a high selectivity for narrow and wide packing.
func BenchmarkFig7SelectionStrategies(b *testing.B) {
	for _, width := range []uint8{4, 21} {
		for _, s := range []float64{0.1, 0.6} {
			d := workload.Gen(workload.Spec{Rows: benchRows, Groups: 8, AggBits: width, NumAggs: 1, Selectivity: s, Seed: 10})
			b.Run(fmt.Sprintf("bits%d/sel%.0f%%/gather", width, s*100), func(b *testing.B) {
				var buf *bitpack.Unpacked
				var idx sel.IndexVec
				for i := 0; i < b.N; i++ {
					buf, idx = sel.GatherSelect(buf, idx, d.AggCols[0], 0, benchRows, d.SelVec)
				}
				reportCycles(b, benchRows)
			})
			b.Run(fmt.Sprintf("bits%d/sel%.0f%%/compact", width, s*100), func(b *testing.B) {
				var buf *bitpack.Unpacked
				for i := 0; i < b.N; i++ {
					buf = sel.CompactSelect(buf, d.AggCols[0], 0, benchRows, d.SelVec)
				}
				reportCycles(b, benchRows)
			})
		}
	}
}

// BenchmarkFig8Grid runs one representative cell of each of the three
// strategy grids (Figures 8–10) end to end through the engine; the full
// 50-cell sweeps are in cmd/bipie-bench.
func BenchmarkFig8Grid(b *testing.B) {
	specs := []struct {
		name    string
		groups  int
		aggBits uint8
	}{
		{"fig8_8g7b", 8, 7},
		{"fig9_12g14b", 12, 14},
		{"fig10_32g28b", 32, 28},
	}
	for _, spec := range specs {
		b.Run(spec.name, func(b *testing.B) {
			tbl, err := workload.BuildTable(workload.TableSpec{
				Rows: benchRows, Groups: spec.groups, AggBits: spec.aggBits, NumAggs: 3, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			q := &engine.Query{
				GroupBy: []string{"g"},
				Aggregates: []engine.Aggregate{
					engine.SumOf(expr.Col("agg0")),
					engine.SumOf(expr.Col("agg1")),
					engine.SumOf(expr.Col("agg2")),
				},
				Filter: expr.Lt(expr.Col("f"), expr.Int(500)),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(tbl, q, engine.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, benchRows)
		})
	}
}

// BenchmarkCompaction measures the raw compacting operator on one
// cache-resident batch (paper §4.1: 0.4–0.6 cycles/row).
func BenchmarkCompaction(b *testing.B) {
	const rows = 4096
	d := workload.Gen(workload.Spec{Rows: rows, Groups: 8, AggBits: 7, NumAggs: 1, Selectivity: 0.5, Seed: 12})
	vals := d.AggCols[0].UnpackSmallest(nil, 0, rows)
	out := make([]uint8, rows)
	var idx sel.IndexVec
	b.Run("indexVector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx = sel.CompactIndices(idx, d.SelVec)
		}
		reportCycles(b, rows)
	})
	b.Run("physical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel.CompactU8(out, vals.U8, d.SelVec)
		}
		reportCycles(b, rows)
	})
}

// --- Ablations of DESIGN.md's called-out choices ---

// BenchmarkAblationSmallestWordUnpack contrasts unpacking a 7-bit column to
// its smallest word (bytes) against always unpacking to uint64 — the §2.2
// rule whose payoff is downstream lane count and memory traffic.
func BenchmarkAblationSmallestWordUnpack(b *testing.B) {
	d := workload.Gen(workload.Spec{Rows: benchRows, Groups: 8, AggBits: 7, NumAggs: 1, Selectivity: 1, Seed: 13})
	b.Run("smallestWord", func(b *testing.B) {
		var buf *bitpack.Unpacked
		for i := 0; i < b.N; i++ {
			buf = d.AggCols[0].UnpackSmallest(buf, 0, benchRows)
		}
		reportCycles(b, benchRows)
	})
	b.Run("alwaysUint64", func(b *testing.B) {
		dst := make([]uint64, benchRows)
		for i := 0; i < b.N; i++ {
			d.AggCols[0].UnpackUint64(dst, 0)
		}
		reportCycles(b, benchRows)
	})
}

// BenchmarkAblationSpecialGroupFusion contrasts special-group fusion with
// compact-then-aggregate at 90% selectivity — the §4.3 motivation.
func BenchmarkAblationSpecialGroupFusion(b *testing.B) {
	tbl, err := workload.BuildTable(workload.TableSpec{Rows: benchRows, Groups: 8, AggBits: 7, NumAggs: 2, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	q := &engine.Query{
		GroupBy:    []string{"g"},
		Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("agg0")), engine.SumOf(expr.Col("agg1"))},
		Filter:     expr.Lt(expr.Col("f"), expr.Int(900)),
	}
	for name, m := range map[string]sel.Method{
		"specialGroup": sel.MethodSpecialGroup,
		"compact":      sel.MethodCompact,
		"gather":       sel.MethodGather,
	} {
		b.Run(name, func(b *testing.B) {
			opts := engine.Options{ForceSelection: engine.ForceSel(m)}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(tbl, q, opts); err != nil {
					b.Fatal(err)
				}
			}
			reportCycles(b, benchRows)
		})
	}
}

// BenchmarkAblationDualBucketCounters contrasts the sort-based counting
// pass's even/odd dual counters against a naive single counter per bucket
// (the §5.2 write-conflict fix), at the small group count where conflicts
// are most frequent.
func BenchmarkAblationDualBucketCounters(b *testing.B) {
	d := workload.Gen(workload.Spec{Rows: benchRows, Groups: 4, AggBits: 4, Selectivity: 1, Seed: 15})
	b.Run("dualCounters", func(b *testing.B) {
		sb := agg.NewSortBased(4, -1)
		for i := 0; i < b.N; i++ {
			sb.Prepare(d.GroupIDs, nil)
		}
		reportCycles(b, benchRows)
	})
	b.Run("singleCounter", func(b *testing.B) {
		counts := make([]int32, 4)
		starts := make([]int32, 5)
		sorted := make([]int32, benchRows)
		for i := 0; i < b.N; i++ {
			for g := range counts {
				counts[g] = 0
			}
			for _, g := range d.GroupIDs {
				counts[g]++
			}
			var off int32
			for g := 0; g < 4; g++ {
				starts[g] = off
				off += counts[g]
			}
			cur := append([]int32(nil), starts[:4]...)
			for r, g := range d.GroupIDs {
				sorted[cur[g]] = int32(r)
				cur[g]++
			}
		}
		reportCycles(b, benchRows)
	})
}

// BenchmarkAblationFilterPushdown contrasts a pushed col-vs-constant filter
// (evaluated on encoded offsets) against the same predicate forced through
// the decoded expression path (by phrasing it as an arithmetic expression
// the pushdown cannot split).
func BenchmarkAblationFilterPushdown(b *testing.B) {
	tbl, err := workload.BuildTable(workload.TableSpec{Rows: benchRows, Groups: 8, AggBits: 7, NumAggs: 1, Seed: 16})
	if err != nil {
		b.Fatal(err)
	}
	aggs := []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("agg0"))}
	pushed := &engine.Query{
		GroupBy: []string{"g"}, Aggregates: aggs,
		Filter: expr.Lt(expr.Col("f"), expr.Int(500)),
	}
	// f+0 < 500 is semantically identical but not a bare column, so it
	// stays on the residual (decode-to-int64) path.
	residual := &engine.Query{
		GroupBy: []string{"g"}, Aggregates: aggs,
		Filter: expr.Lt(expr.Add(expr.Col("f"), expr.Int(0)), expr.Int(500)),
	}
	b.Run("pushedEncoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(tbl, pushed, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, benchRows)
	})
	b.Run("residualDecoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(tbl, residual, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, benchRows)
	})
}

// buildSweepTable materializes the selectivity-sweep table: one segment of
// benchRows rows with two 20-bit filter columns over the same value domain
// but opposite batch structure.
//
//   - "ts": batch-shuffled clusters. Batch z holds perm[z]*4096 + 12-bit
//     noise, so every batch covers a narrow disjoint slice of [0, 2^20) in
//     arbitrary segment order — the shape of multi-source ingest, where
//     values cluster by origin but arrival order interleaves origins. Zone
//     maps resolve `ts < t` to all/none for almost every batch. The batch
//     boundary jumps (~2^20) keep delta encoding more expensive than plain
//     bit packing, so ChooseInt keeps the column on the packed path.
//   - "u": the same domain scattered uniformly. Zone maps can never skip,
//     isolating the packed-compare kernel's contribution.
func buildSweepTable(b *testing.B) *bipie.Table {
	b.Helper()
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "g", Type: bipie.String},
		{Name: "ts", Type: bipie.Int64},
		{Name: "u", Type: bipie.Int64},
		{Name: "agg0", Type: bipie.Int64},
	}, bipie.WithSegmentRows(benchRows))
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4096
	perm := rand.New(rand.NewSource(99)).Perm(benchRows / batch)
	ts := make([]int64, benchRows)
	u := make([]int64, benchRows)
	agg0 := make([]int64, benchRows)
	groups := make([]string, benchRows)
	for i := range ts {
		h := uint32(i) * 2654435761
		ts[i] = int64(perm[i/batch])*batch + int64(h%batch)
		u[i] = int64(h % (1 << 20))
		agg0[i] = int64(h % 128)
		groups[i] = fmt.Sprintf("k%d", i%8)
	}
	if err := tbl.AppendColumns(
		map[string][]int64{"ts": ts, "u": u, "agg0": agg0},
		map[string][]string{"g": groups},
	); err != nil {
		b.Fatal(err)
	}
	tbl.Flush()
	return tbl
}

// scanStats runs q once and returns what that scan did — the counters the
// encoded-domain sweeps below check their path against and report.
func scanStats(b *testing.B, tbl *bipie.Table, q *engine.Query, opts engine.Options) engine.ScanStats {
	b.Helper()
	p, err := engine.Prepare(tbl, q, opts)
	if err != nil {
		b.Fatal(err)
	}
	_, st, err := p.RunTraced(context.Background(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkSelectivitySweep runs the pushed predicate `col < sel*2^20` at
// selectivities from 0.1% to 99% with the packed-domain machinery on
// ("opt") and off ("seed", the pre-packed-kernel configuration), on both
// sweep columns. At low selectivity on "ts" the win is zone-map skipping;
// on "u" it is the packed compare alone. Each result carries the scan's
// batches_skipped and packed_batches counts alongside cycles/row.
func BenchmarkSelectivitySweep(b *testing.B) {
	tbl := buildSweepTable(b)
	aggs := []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("agg0"))}
	variants := []struct {
		name string
		opts engine.Options
	}{
		{"opt", engine.Options{}},
		{"seed", engine.Options{DisableZoneMaps: true, DisablePackedFilter: true}},
	}
	for _, col := range []string{"ts", "u"} {
		for _, s := range []float64{0.001, 0.01, 0.1, 0.5, 0.99} {
			q := &engine.Query{
				GroupBy: []string{"g"}, Aggregates: aggs,
				Filter: expr.Lt(expr.Col(col), expr.Int(int64(s*(1<<20)))),
			}
			for _, v := range variants {
				b.Run(fmt.Sprintf("col=%s/sel=%g/%s", col, s, v.name), func(b *testing.B) {
					// One instrumented run pins the counters (and guards
					// against the encoder flipping the column off the
					// bit-packed path, which would disable pushdown).
					st := scanStats(b, tbl, q, v.opts)
					if v.name == "opt" && st.PackedKernelBatches+st.BatchesSkipped == 0 {
						b.Fatalf("column %q not on the packed path: %+v", col, st)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := engine.Run(tbl, q, v.opts); err != nil {
							b.Fatal(err)
						}
					}
					reportCycles(b, benchRows)
					b.ReportMetric(float64(st.BatchesSkipped), "batches_skipped")
					b.ReportMetric(float64(st.PackedKernelBatches), "packed_batches")
				})
			}
		}
	}
}

// BenchmarkRLESelectivitySweep measures the fully encoded span pipeline:
// a filter and sum over one RLE column with a single group resolves both
// at run granularity (CmpSpans + SumSpans), never materializing a row.
// The "rle-off" variant disables the RLE domain, so the same query decodes
// every run and filters row-by-row — the seed configuration for this
// encoding. Runs are 512 rows with batch-scattered values, so zone maps
// cannot skip and the delta is the run-domain machinery alone.
func BenchmarkRLESelectivitySweep(b *testing.B) {
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "rate", Type: bipie.Int64},
	}, bipie.WithSegmentRows(benchRows))
	if err != nil {
		b.Fatal(err)
	}
	const run = 512
	rate := make([]int64, benchRows)
	for i := range rate {
		h := uint32(i/run) * 2654435761
		rate[i] = int64(h % 1000) // scattered run values in [0, 1000)
	}
	if err := tbl.AppendColumns(map[string][]int64{"rate": rate}, map[string][]string{}); err != nil {
		b.Fatal(err)
	}
	tbl.Flush()
	variants := []struct {
		name string
		opts engine.Options
	}{
		{"opt", engine.Options{}},
		{"rle-off", engine.Options{DisableRLEDomain: true}},
	}
	for _, s := range []float64{0.001, 0.01, 0.1, 0.5, 0.99} {
		q := &engine.Query{
			Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("rate"))},
			Filter:     expr.Lt(expr.Col("rate"), expr.Int(int64(s*1000))),
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("sel=%g/%s", s, v.name), func(b *testing.B) {
				// One instrumented run guards the span path (and catches
				// the encoder ever taking "rate" off RLE).
				st := scanStats(b, tbl, q, v.opts)
				if v.name == "opt" && st.RunSpanBatches == 0 {
					b.Fatalf("span pipeline did not engage: %+v", st)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := engine.Run(tbl, q, v.opts); err != nil {
						b.Fatal(err)
					}
				}
				reportCycles(b, benchRows)
				b.ReportMetric(float64(st.RunSpanBatches), "span_batches")
				b.ReportMetric(float64(st.RunSkippedRows), "rows_not_decoded")
			})
		}
	}
}

// BenchmarkDictFilter measures string predicates evaluated in
// dictionary-code space: "eq" collapses to one packed compare over the id
// vector (dict-eq), "set" to a 256-entry bitmap over unpacked ids
// (dict-bitmap). The "dict-off" variant disables the dict domain, falling
// back to the compiled residual evaluator — the seed path, which resolves
// ids lazily and filters by mask per row without the packed kernels.
func BenchmarkDictFilter(b *testing.B) {
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "g", Type: bipie.String},
		{Name: "a", Type: bipie.Int64},
	}, bipie.WithSegmentRows(benchRows))
	if err != nil {
		b.Fatal(err)
	}
	g := make([]string, benchRows)
	a := make([]int64, benchRows)
	for i := range g {
		h := uint32(i) * 2654435761
		g[i] = fmt.Sprintf("v%02d", h%64)
		a[i] = int64(h % 128)
	}
	if err := tbl.AppendColumns(map[string][]int64{"a": a}, map[string][]string{"g": g}); err != nil {
		b.Fatal(err)
	}
	tbl.Flush()
	preds := []struct {
		name string
		pred expr.Pred
	}{
		{"eq", expr.StrEq("g", "v17")},
		// Every 7th value: non-contiguous ids force the bitmap shape.
		{"set", expr.StrInSet("g", "v00", "v07", "v14", "v21", "v28", "v35", "v42", "v49")},
	}
	variants := []struct {
		name string
		opts engine.Options
	}{
		{"opt", engine.Options{}},
		{"dict-off", engine.Options{DisableDictDomain: true}},
	}
	aggs := []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("a"))}
	for _, p := range preds {
		q := &engine.Query{Aggregates: aggs, Filter: p.pred}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", p.name, v.name), func(b *testing.B) {
				st := scanStats(b, tbl, q, v.opts)
				if v.name == "opt" && st.DictFilterBatches == 0 {
					b.Fatalf("dict-domain filter did not engage: %+v", st)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := engine.Run(tbl, q, v.opts); err != nil {
						b.Fatal(err)
					}
				}
				reportCycles(b, benchRows)
				b.ReportMetric(float64(st.DictFilterBatches), "dict_batches")
			})
		}
	}
}

// BenchmarkAblationRLERunSum contrasts run-granularity summation of an
// RLE column against the decoded per-row path (forced by a scalar strategy
// override, which disables the run shortcut).
func BenchmarkAblationRLERunSum(b *testing.B) {
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "rate", Type: bipie.Int64},
	}, bipie.WithSegmentRows(benchRows))
	if err != nil {
		b.Fatal(err)
	}
	ints := map[string][]int64{"rate": make([]int64, benchRows)}
	for i := range ints["rate"] {
		ints["rate"][i] = int64(i / 4096) // long runs → RLE encoding
	}
	if err := tbl.AppendColumns(ints, map[string][]string{}); err != nil {
		b.Fatal(err)
	}
	tbl.Flush()
	q := &engine.Query{Aggregates: []engine.Aggregate{engine.SumOf(expr.Col("rate"))}}
	b.Run("runLevel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(tbl, q, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, benchRows)
	})
	b.Run("decodedRows", func(b *testing.B) {
		opts := engine.Options{ForceAggregation: engine.ForceAgg(agg.StrategyScalar)}
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(tbl, q, opts); err != nil {
				b.Fatal(err)
			}
		}
		reportCycles(b, benchRows)
	})
}

// BenchmarkAblationSkewedGroups reproduces the §5.1 data-skew observation:
// under a Zipf group distribution the single-array scalar kernels stall on
// same-address updates even with many groups, and the multi-array unroll
// recovers the loss.
func BenchmarkAblationSkewedGroups(b *testing.B) {
	for _, skew := range []float64{0, 1.5} {
		d := workload.Gen(workload.Spec{Rows: benchRows, Groups: 32, AggBits: 4, Selectivity: 1, Skew: skew, Seed: 18})
		counts := make([]int64, 32)
		b.Run(fmt.Sprintf("skew%.1f/single", skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg.ScalarCount(d.GroupIDs, counts)
			}
			reportCycles(b, benchRows)
		})
		b.Run(fmt.Sprintf("skew%.1f/multi", skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg.ScalarCountMulti(d.GroupIDs, counts)
			}
			reportCycles(b, benchRows)
		})
	}
}
