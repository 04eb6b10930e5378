package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/perfstat"
	"bipie/internal/sel"
	"bipie/internal/sql"
	"bipie/internal/table"
	"bipie/internal/tpch"
	kernelgen "bipie/internal/workload"
)

// The bottom of the per-layer ladder: every number here comes from timing a
// module's public function from outside, on inputs the benchmark builds.
// Kernel probes run on one 4096-row batch, L1/L2-resident like the batch
// the scan's own loop works on, at the widths lineitem's columns actually
// pack to: linestatus 1, returnflag 2, discount and tax 4, quantity 6,
// shipdate 12, extendedprice 24.
const (
	probeRows   = colstore.BatchRows
	probeGroups = 6 // TPC-H Q1's group domain
)

var (
	unpackWidths = []uint8{1, 2, 4, 6, 12, 24}
	cmpWidths    = []uint8{2, 4, 6, 12, 24}
)

// probeBudget is how long the probes may take. A kernel probe times `rounds`
// short rounds of back-to-back calls and keeps the best: 100 µs is short
// enough that some round of a thousand has the core to itself even while a
// neighbour is busy (the reference kernel finds its floor the same way). A
// call that takes milliseconds itself (encoding a column, flushing a table)
// has no such luck; it is called `calls` times with a prober beside it and
// corrected like a set-up. scans is how many traced scans the engine rungs
// average.
type probeBudget struct {
	rounds   int
	roundLen time.Duration
	calls    int
	scans    int
}

// seconds times fn in rounds and returns the best round's time per call.
// Calls are batched so that reading the clock stays under a percent of a
// microsecond kernel.
func (b probeBudget) seconds(fn func()) float64 {
	fn() // lazily grown buffers, cold caches
	t0 := time.Now()
	fn()
	batch := 1
	if warm := time.Since(t0); warm > 0 {
		batch = int(b.roundLen / (4 * warm))
	}
	batch = max(1, min(batch, 4096))
	best := math.Inf(1)
	for r := 0; r < b.rounds; r++ {
		calls := 0
		start := time.Now()
		for {
			for i := 0; i < batch; i++ {
				fn()
			}
			calls += batch
			if time.Since(start) >= b.roundLen {
				break
			}
		}
		best = math.Min(best, time.Since(start).Seconds()/float64(calls))
	}
	return best
}

// cycles is seconds in the paper's unit: cycles per unit of work.
func (b probeBudget) cycles(units int, fn func()) float64 {
	return b.seconds(fn) * perfstat.Hz() / float64(units)
}

// heavySeconds is the corrected time per call of a call that takes
// milliseconds.
func (b probeBudget) heavySeconds(fn func()) float64 {
	fn() // warm
	t0 := time.Now()
	p, _ := probeDuring(func() error {
		for i := 0; i < b.calls; i++ {
			fn()
		}
		return nil
	})
	return time.Since(t0).Seconds() / float64(b.calls) / p.factor()
}

func (b probeBudget) heavyCycles(units int, fn func()) float64 {
	return b.heavySeconds(fn) * perfstat.Hz() / float64(units)
}

// batchInput is one 4096-row batch at a packed width, with six-way group
// ids and a selection vector at an exact selectivity.
func batchInput(width uint8, selectivity float64, seed int64) *kernelgen.Data {
	return kernelgen.Gen(kernelgen.Spec{Rows: probeRows, Groups: probeGroups, AggBits: width,
		NumAggs: 1, Selectivity: selectivity, Seed: seed})
}

// kernelCosts are the kernel probes the engine rungs compare a scan's phases
// with, in cycles/row.
type kernelCosts struct {
	unpack    map[uint8]float64 // by packed width
	scalarSum float64
}

// kernelMetrics probes bitpack, sel and agg.
func kernelMetrics(out *report, b probeBudget, seed int64) kernelCosts {
	unpack := map[uint8]float64{}
	mask := sel.NewByteVec(probeRows)
	for _, w := range unpackWidths {
		d := batchInput(w, 0.5, seed)
		v := d.AggCols[0]
		var buf *bitpack.Unpacked
		unpack[w] = b.cycles(probeRows, func() { buf = v.UnpackSmallest(buf, 0, probeRows) })
		out.add(fmt.Sprintf("bitpack.unpack.w%d.cycles_per_row", w), "cycles", unpack[w])
	}
	for _, w := range cmpWidths {
		v := batchInput(w, 0.5, seed).AggCols[0]
		t := v.Mask() / 2
		out.add(fmt.Sprintf("bitpack.cmp_le_packed.w%d.cycles_per_row", w), "cycles",
			b.cycles(probeRows, func() { v.CmpLEPacked(mask, 0, t, false) }))
	}
	raw12 := batchInput(12, 0.5, seed).AggRaw[0]
	out.add("bitpack.pack.w12.cycles_per_row", "cycles", b.cycles(probeRows, func() {
		if _, err := bitpack.Pack(raw12, 12); err != nil {
			panic(err) // 12-bit values at width 12
		}
	}))

	idx := make(sel.IndexVec, probeRows)
	for _, s := range []int{10, 50, 90} {
		sv := batchInput(24, float64(s)/100, seed).SelVec
		out.add(fmt.Sprintf("sel.compact_indices.s%d.cycles_per_row", s), "cycles",
			b.cycles(probeRows, func() { idx = sel.CompactIndices(idx[:probeRows], sv) }))
	}
	{
		d := batchInput(24, 0.10, seed)
		var buf *bitpack.Unpacked
		out.add("sel.gather.w24.s10.cycles_per_row", "cycles", b.cycles(probeRows, func() {
			buf, idx = sel.GatherSelect(buf, idx, d.AggCols[0], 0, probeRows, d.SelVec)
		}))
		d = batchInput(24, 0.50, seed)
		out.add("sel.compact.w24.s50.cycles_per_row", "cycles", b.cycles(probeRows, func() {
			buf = sel.CompactSelect(buf, d.AggCols[0], 0, probeRows, d.SelVec)
		}))
		// Half the batch selected, in 512-row spans like filter_scan's runs.
		var spans []sel.Span
		for at := int32(0); at < probeRows; at += 2 * rleRunLen {
			spans = append(spans, sel.Span{Start: at, End: at + rleRunLen})
		}
		out.add("sel.apply_spans.cycles_per_sel_row", "cycles",
			b.cycles(sel.SpanRows(spans), func() { sel.ApplySpans(mask, spans, true) }))
	}

	groups := batchInput(6, 1, seed).GroupIDs
	sums := make([]int64, probeGroups)
	u8 := batchInput(6, 1, seed).AggCols[0].UnpackSmallest(nil, 0, probeRows)
	u16 := batchInput(12, 1, seed).AggCols[0].UnpackSmallest(nil, 0, probeRows)
	v12 := batchInput(12, 1, seed).AggCols[0]
	u32 := batchInput(24, 1, seed).AggCols[0].UnpackSmallest(nil, 0, probeRows)
	aggProbe := func(name string, fn func()) {
		out.add("agg."+name+".cycles_per_row", "cycles", b.cycles(probeRows, fn))
	}
	aggProbe("inreg_count", func() { agg.InRegisterCount(groups, probeGroups, sums) })
	aggProbe("inreg_sum8", func() { agg.InRegisterSum8(groups, u8.U8, probeGroups, sums) })
	aggProbe("inreg_sum16", func() { agg.InRegisterSum16(groups, u16.U16, probeGroups, sums) })
	aggProbe("inreg_sum32", func() { agg.InRegisterSum32(groups, u32.U32, probeGroups, sums) })
	sorter := agg.NewSortBased(probeGroups, -1)
	aggProbe("sort_based_sum", func() {
		sorter.Prepare(groups, nil)
		sorter.SumPacked(v12, 0, sums)
	})
	multi, err := agg.NewMultiAgg(probeGroups, -1, []int{4, 4, 4, 4})
	if err != nil {
		panic(err) // four 32-bit sums always fit a register row
	}
	cols4 := []*bitpack.Unpacked{u32, u32, u32, u32}
	aggProbe("multiagg4", func() { multi.Accumulate(groups, cols4) })
	scalarSum := b.cycles(probeRows, func() { agg.ScalarSum(groups, u32, sums) })
	out.add("agg.scalar_sum.cycles_per_row", "cycles", scalarSum)
	return kernelCosts{unpack: unpack, scalarSum: scalarSum}
}

// encodeRows is the column length the encoder probes use: long enough that
// ChooseInt's trial encodings dominate its fixed cost.
const encodeRows = 1 << 16

// encodingMetrics probes the encoder's choice on columns that end up
// bit-packed, run-length and delta encoded, the dictionary build, and the
// run-domain and decode kernels.
func encodingMetrics(out *report, b probeBudget, seed int64) {
	raw := kernelgen.Gen(kernelgen.Spec{Rows: encodeRows, Groups: 3, AggBits: 24, NumAggs: 1, Seed: seed})
	packed := make([]int64, encodeRows)
	runs := make([]int64, encodeRows)
	keys := make([]int64, encodeRows)
	strs := make([]string, encodeRows)
	for i := range packed {
		packed[i] = int64(raw.AggRaw[0][i])
		runs[i] = packed[i-i%rleRunLen] % 1000
		keys[i] = int64(i) * 3
		strs[i] = "ANR"[raw.GroupIDs[i] : raw.GroupIDs[i]+1]
	}
	for _, c := range []struct {
		name string
		vals []int64
		want encoding.Kind
	}{{"bitpack", packed, encoding.KindBitPack}, {"rle", runs, encoding.KindRLE}, {"delta", keys, encoding.KindDelta}} {
		if got := encoding.ChooseInt(c.vals).Kind(); got != c.want {
			panic(fmt.Sprintf("benchmark: %s probe column was encoded as %v", c.name, got))
		}
		vals := c.vals
		out.add("encoding.choose_int."+c.name+".cycles_per_row", "cycles",
			b.heavyCycles(encodeRows, func() { encoding.ChooseInt(vals) }))
	}
	out.add("encoding.new_dict.cycles_per_row", "cycles", b.heavyCycles(encodeRows, func() { encoding.NewDict(strs) }))

	// Eight-row runs: short enough that a batch holds 512 of them and the
	// per-run cost, not the per-call cost, is what is measured.
	const runLen = 8
	short := make([]int64, probeRows)
	for i := range short {
		short[i] = int64(i / runLen % 64)
	}
	rle := encoding.NewRLE(short)
	spans := make([]sel.Span, probeRows/2+1)
	out.add("encoding.rle.cmp_spans.cycles_per_run", "cycles",
		b.cycles(probeRows/runLen, func() { rle.CmpSpans(spans, encoding.RunLE, 31, 0, probeRows) }))
	n := rle.CmpSpans(spans, encoding.RunLE, 31, 0, probeRows)
	qual := spans[:n]
	var total int64
	out.add("encoding.rle.sum_spans.cycles_per_run", "cycles",
		b.cycles(sel.SpanRows(qual)/runLen, func() { total += rle.SumSpans(0, qual) }))

	dst := make([]int64, probeRows)
	delta := encoding.NewDelta(keys[:probeRows])
	out.add("encoding.delta.decode.cycles_per_row", "cycles", b.cycles(probeRows, func() { delta.Decode(dst, 0) }))
	bp := encoding.NewBitPack(packed[:probeRows])
	out.add("encoding.bitpack.decode.cycles_per_row", "cycles", b.cycles(probeRows, func() { bp.Decode(dst, 0) }))
}

// storageMetrics times the write path's public calls on ingest's columns
// and reads the per-column footprint off the big table.
func storageMetrics(out *report, b probeBudget, rows int, seed int64, lineitem *table.Table) error {
	src, err := lineitemColumns(rows, seed)
	if err != nil {
		return err
	}
	var failed error
	appended := func() *table.Table {
		t, err := table.New(tpch.Schema())
		if err == nil {
			err = t.AppendColumns(src.ints, src.strs)
		}
		if err != nil {
			failed = err
		}
		return t
	}
	appendS := b.heavySeconds(func() { appended() })
	out.add("table.append_columns.cycles_per_row", "cycles", appendS*perfstat.Hz()/float64(rows))
	// Flush has nothing to do without an append before it: time both and
	// take the append away.
	var flushed *table.Table
	bothS := b.heavySeconds(func() {
		flushed = appended()
		flushed.Flush()
	})
	out.add("table.flush.cycles_per_row", "cycles", math.Max(bothS-appendS, 0)*perfstat.Hz()/float64(rows))

	var buf bytes.Buffer
	writeS := b.heavySeconds(func() {
		buf.Reset()
		if _, err := flushed.WriteTo(&buf); err != nil {
			failed = err
		}
	})
	mb := float64(buf.Len()) / 1e6
	out.add("colstore.write.mb_per_s", "MB/s", mb/writeS)
	loadS := b.heavySeconds(func() {
		if _, err := table.Load(bytes.NewReader(buf.Bytes())); err != nil {
			failed = err
		}
	})
	out.add("colstore.load.mb_per_s", "MB/s", mb/loadS)
	if failed != nil {
		return failed
	}

	st := lineitem.Stats()
	for _, c := range st.Columns {
		out.add("colstore.bytes_per_row."+c.Name, "B", float64(c.EncodedBytes)/float64(st.Rows))
	}
	return nil
}

// sqlMetrics times the parser on the longest statement served (Q1) and the
// shortest (serve_light's count shape).
func sqlMetrics(out *report, b probeBudget) {
	for _, c := range []struct{ name, src string }{
		{"q1", lightShapes("lineitem")[0].sql},
		{"short", lightShapes("t00")[3].sql},
	} {
		src := c.src
		out.add("sql.parse_us."+c.name, "us", b.seconds(func() {
			if _, err := sql.Parse(src); err != nil {
				panic(err) // statements the workloads verified
			}
		})*1e6)
	}
}
