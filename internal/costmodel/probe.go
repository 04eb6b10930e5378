package costmodel

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/perfstat"
	"bipie/internal/sel"
)

// Probe design. Each probe runs one real hot kernel — the same function the
// scan executes, not a stand-in — over a fixed synthetic working set sized
// to a few batches (probeRows = 4 × colstore.BatchRows), repeatedly for at
// least probeMinTime, and records the median run in cycles/row via
// perfstat. All buffers are allocated (and lazily-growing kernels warmed)
// in newProbeSet, so the probe bodies themselves are alloc-free and
// hotalloc-checked like any other kernel: a probe that allocated would
// measure the allocator, not the kernel. Total calibration cost is
// ~60 probes × ~150µs ≈ 10–20ms, paid only when a fit is asked for.
//
// Probe names and units:
//
//	unpack.w<N>           fast-unpack at packed width N      cycles/row
//	packedcmp.w<N>        packed-domain SWAR compare         cycles/row
//	cmpmask.w<S>          compare→0x00/0xFF mask, S-byte     cycles/row
//	rle.cmpspans          run-domain compare                 cycles/run
//	sel.applyspans        span→row-mask expansion            cycles/row
//	sel.compactidx        selection→index compaction         cycles/row
//	sel.compact.w<S>      physical value compaction          cycles/row
//	sel.gather.w<S>       indexed unpack of selected rows    cycles/selected row
//	delta.decode          delta checkpoint-replay decode     cycles/row
//	dict.bitmap           id unpack + 256-entry mask lookup  cycles/row
//	agg.inreg.pergroup.w<S>  in-register sum                 cycles/row/group
//	agg.sort.fixed        bucket-sort Prepare                cycles/row
//	agg.sort.persum       sorted-order packed sum            cycles/row/sum
//	agg.multi.fixed/.persum  multi-aggregate Accumulate fit  cycles/row
//	agg.count.scalar      two-array scalar COUNT(*)          cycles/row
//	agg.count.inreg.pergroup  in-register COUNT(*)           cycles/row/group
//	agg.scalar.persum     row-at-a-time scalar sum           cycles/row/sum
//	agg.scalar.mixed      the same over mixed word sizes     cycles/row/sum
//	agg.reduce            one-group register sum, 4-byte     cycles/row/sum
//	sumexpr.add.w<S>      sum-expression add into an S-byte lane   cycles/row
//	sumexpr.mul.w<S>      sum-expression multiply, likewise        cycles/row
//	sumexpr.div           sum-expression int64 divide              cycles/row

const (
	// probeRows is the probe working-set length: four 4096-row batches,
	// small enough to stay cache-resident (the regime the scan's own batch
	// loop runs in) and large enough to amortize call overhead.
	probeRows = 16384
	// probeRunLen is the RLE probe's run length. Short runs keep the
	// run-domain kernels doing measurable per-batch work, matching the
	// regime where the span pipeline's cost actually matters.
	probeRunLen = 8
	// probeGroups sizes the sort/multi/scalar aggregation probes; 64 groups
	// is mid-range for the strategies that scale past the in-register limit.
	probeGroups = 64
	// inRegProbeGroups sizes the in-register probes; the per-group
	// coefficient is the measured cost divided by this.
	inRegProbeGroups = 4
)

// probeMinTime is the minimum measured duration per probe; perfstat.Time
// repeats the kernel until it accumulates this much wall time (≥3 runs)
// and reports the median run.
const probeMinTime = 120 * time.Microsecond

// denseProbeWidth is the width up to which the unpack/packedcmp families
// probe every packed width: bitpack has a word-parallel kernel for some of
// them (1, 2, 3, 4, 6, 8, 12, 16, 24, 32) and the windowed loop for the
// rest, a 3-4× step between neighbours that no interpolation survives.
const denseProbeWidth = 32

// probeWidths is the packed-width set the unpack/packedcmp families
// measure, ascending: every width to denseProbeWidth, then sparse, where
// one windowed loop serves all widths and kernelAt interpolates.
var probeWidths = func() []uint8 {
	ws := make([]uint8, 0, denseProbeWidth+4)
	for w := uint8(1); w <= denseProbeWidth; w++ {
		ws = append(ws, w)
	}
	return append(ws, 40, 48, 56, 64)
}()

// cmpMaskWordSizes are the unpacked word sizes of the compare-mask,
// compact, and gather probe families.
var cmpMaskWordSizes = []int{1, 2, 4, 8}

// probeSet owns every buffer the probes touch. Building it performs all
// allocation and one warm-up call of each lazily-growing kernel, so the
// run* methods below stay alloc-free.
type probeSet struct {
	packed   [65]*bitpack.Vector   // by width
	unpacked [65]*bitpack.Unpacked // by width, warmed
	thresh   [65]uint64            // mid-domain compare threshold by width

	mask     sel.ByteVec
	halfMask sel.ByteVec // pseudorandom ~50% selected
	idx      sel.IndexVec
	nIdx     int

	u8    []uint8
	u16   []uint16
	u32   []uint32
	u64   []uint64
	out8  []uint8
	out16 []uint16
	out32 []uint32
	out64 []uint64

	gatherBuf [9]*bitpack.Unpacked // by word size, warmed

	rle       *encoding.RLEColumn
	rleThresh int64
	spans     []sel.Span
	nSpans    int
	qualSpans []sel.Span // CmpSpans output the ApplySpans probe expands
	nQual     int
	qualRows  int

	delta  *encoding.DeltaColumn
	i64buf []int64
	diffs  []uint64

	bitmapMask [256]byte
	idsBuf     []uint8

	groups4   []uint8 // cycling 0..inRegProbeGroups-1
	groups64  []uint8 // cycling 0..probeGroups-1
	sums4     []int64
	sums64    []int64
	sorter    *agg.SortBased
	multi1    *agg.MultiAgg
	multi4    *agg.MultiAgg
	valsU32   *bitpack.Unpacked
	cols1     []*bitpack.Unpacked
	cols4     []*bitpack.Unpacked
	sumAcc1   [][]int64
	scScratch agg.ScalarScratch
	reduced   int64 // the reduce probe's result, kept so the call has a use

	// The mixed-width scalar probe sums Q1's shape: two byte columns, two
	// 4-byte ones, one 8-byte one.
	colsMixed   []*bitpack.Unpacked
	sumAccMixed [][]int64

	// sumProg holds one operator of each probed kind per destination lane,
	// over operands half the lane wide (a product or sum outgrows its
	// inputs, which is why it lands in that lane); sumBufs are its node
	// vectors and sumAdd/sumMul[lane], sumDiv index the operators.
	sumProg        *expr.SumProgram
	sumBufs        []*bitpack.Unpacked
	sumAdd, sumMul [9]int
	sumDiv         int
}

// sumExprLanes are the destination lanes of the sum-expression probes.
var sumExprLanes = []int{1, 2, 4, 8}

// lcg is the probe data generator: deterministic, cheap, and enough mixing
// that compare masks and group ids do not fall into branch-predictable
// patterns a real scan would not see.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

func newProbeSet() *probeSet {
	ps := &probeSet{}
	var r lcg = 0x42
	vals := make([]uint64, probeRows)
	for _, w := range probeWidths {
		mask := uint64(1)<<w - 1
		if w == 64 {
			mask = ^uint64(0)
		}
		for i := range vals {
			vals[i] = r.next() & mask
		}
		ps.packed[w] = bitpack.MustPack(vals, w)
		ps.thresh[w] = mask / 2
		ps.unpacked[w] = ps.packed[w].UnpackSmallest(nil, 0, probeRows) // warm
	}

	ps.mask = sel.NewByteVec(probeRows)
	ps.halfMask = sel.NewByteVec(probeRows)
	for i := range ps.halfMask {
		if r.next()&1 == 1 {
			ps.halfMask[i] = sel.Selected
		}
	}
	ps.idx = make(sel.IndexVec, probeRows)
	ps.idx = sel.CompactIndices(ps.idx, ps.halfMask) // warm + fix nIdx
	ps.nIdx = len(ps.idx)

	ps.u8 = make([]uint8, probeRows)
	ps.u16 = make([]uint16, probeRows)
	ps.u32 = make([]uint32, probeRows)
	ps.u64 = make([]uint64, probeRows)
	ps.out8 = make([]uint8, probeRows)
	ps.out16 = make([]uint16, probeRows)
	ps.out32 = make([]uint32, probeRows)
	ps.out64 = make([]uint64, probeRows)
	for i := 0; i < probeRows; i++ {
		v := r.next()
		ps.u8[i] = uint8(v)
		ps.u16[i] = uint16(v)
		ps.u32[i] = uint32(v)
		ps.u64[i] = v
	}

	for _, ws := range cmpMaskWordSizes {
		w := uint8(ws * 8)
		ps.gatherBuf[ws] = sel.GatherIndices(nil, ps.packed[w], 0, ps.idx) // warm
	}

	rleVals := make([]int64, probeRows)
	for i := range rleVals {
		rleVals[i] = int64((i / probeRunLen) % 64)
	}
	ps.rle = encoding.NewRLE(rleVals)
	ps.rleThresh = 31 // selects half the run values
	ps.spans = make([]sel.Span, probeRows/2+1)
	ps.qualSpans = make([]sel.Span, probeRows/2+1)
	ps.nQual = ps.rle.CmpSpans(ps.qualSpans, encoding.RunLE, ps.rleThresh, 0, probeRows)
	ps.qualRows = sel.SpanRows(ps.qualSpans[:ps.nQual])

	deltaVals := make([]int64, probeRows)
	for i := range deltaVals {
		deltaVals[i] = int64(i) * 3
	}
	ps.delta = encoding.NewDelta(deltaVals)
	ps.i64buf = make([]int64, probeRows)
	ps.diffs = make([]uint64, probeRows)

	for i := 0; i < 256; i++ {
		if i&3 == 0 {
			ps.bitmapMask[i] = byte(sel.Selected)
		}
	}
	ps.idsBuf = make([]uint8, probeRows)

	ps.groups4 = make([]uint8, probeRows)
	ps.groups64 = make([]uint8, probeRows)
	for i := 0; i < probeRows; i++ {
		g := uint8(r.next())
		ps.groups4[i] = g % inRegProbeGroups
		ps.groups64[i] = g % probeGroups
	}
	ps.sums4 = make([]int64, inRegProbeGroups)
	ps.sums64 = make([]int64, probeGroups)
	ps.sorter = agg.NewSortBased(probeGroups, -1)
	ps.sorter.Prepare(ps.groups64, nil) // warm the sorted-index buffer

	ps.valsU32 = bitpack.NewUnpacked(32, probeRows)
	for i := range ps.valsU32.U32 {
		ps.valsU32.U32[i] = uint32(r.next() & 3)
	}
	var err error
	if ps.multi1, err = agg.NewMultiAgg(probeGroups, -1, []int{4}); err != nil {
		panic("costmodel: multi probe layout: " + err.Error())
	}
	if ps.multi4, err = agg.NewMultiAgg(probeGroups, -1, []int{4, 4, 4, 4}); err != nil {
		panic("costmodel: multi probe layout: " + err.Error())
	}
	ps.cols1 = []*bitpack.Unpacked{ps.valsU32}
	ps.cols4 = []*bitpack.Unpacked{ps.valsU32, ps.valsU32, ps.valsU32, ps.valsU32}
	ps.sumAcc1 = [][]int64{ps.sums64}
	// Warm every lazily-growing scratch so the timed bodies never allocate.
	ps.multi1.Accumulate(ps.groups64, ps.cols1)
	ps.multi4.Accumulate(ps.groups64, ps.cols4)
	agg.ScalarSumRowAtATimeInto(&ps.scScratch, ps.groups64, ps.cols1, ps.sumAcc1)

	for _, w := range []uint8{8, 32, 32, 64, 8} {
		ps.colsMixed = append(ps.colsMixed, ps.unpacked[w])
		ps.sumAccMixed = append(ps.sumAccMixed, make([]int64, probeGroups))
	}
	agg.ScalarSumRowAtATimeInto(&ps.scScratch, ps.groups64, ps.colsMixed, ps.sumAccMixed)

	ps.buildSumProgram()
	return ps
}

// buildSumProgram compiles the probed operators through the real builder,
// so the probes time exactly the kernel instantiations a plan would run:
// leaves of 4, 8, 16 and 32 bits whose sums and products are proven into
// the 1-, 2-, 4- and 8-byte lanes.
func (ps *probeSet) buildSumProgram() {
	leafBits := map[int]uint8{1: 4, 2: 8, 4: 16, 8: 32}
	widths := map[string]uint8{}
	for _, w := range leafBits {
		widths[fmt.Sprintf("a%d", w)], widths[fmt.Sprintf("b%d", w)] = w, w
	}
	b := expr.NewSumBuilder(func(name string) (expr.SumLeaf, error) {
		return expr.SumLeaf{Max: 1<<widths[name] - 1, Width: widths[name]}, nil
	}, false)
	node := func(e expr.Expr) int {
		t, err := b.Term(e)
		if err != nil {
			panic("costmodel: sum-expression probe: " + err.Error())
		}
		return t.Node
	}
	for _, lane := range sumExprLanes {
		x, y := expr.Col(fmt.Sprintf("a%d", leafBits[lane])), expr.Col(fmt.Sprintf("b%d", leafBits[lane]))
		ps.sumAdd[lane] = node(expr.Add(x, y))
		ps.sumMul[lane] = node(expr.Mul(x, y))
	}
	ps.sumDiv = node(expr.Div(expr.Col("a32"), expr.Col("b32")))
	ps.sumProg = b.Program()
	ps.sumBufs = make([]*bitpack.Unpacked, ps.sumProg.Len())
	for i := range ps.sumBufs {
		nd := ps.sumProg.Node(i)
		if nd.Op == expr.SumLeafPacked {
			ps.sumBufs[i] = ps.packed[nd.Width].UnpackSmallest(nil, 0, probeRows)
			continue
		}
		ps.sumBufs[i] = bitpack.NewUnpacked(uint8(8*nd.Word), probeRows)
		ps.sumProg.Eval(ps.sumBufs, i, probeRows) // fills operand nodes the probed ones read
	}
}

// ---------------------------------------------------------------------------
// Probe bodies. Each is the timed unit perfstat.Time repeats; annotated as
// kernels so hotalloc holds them to the same no-allocation, no-clock-read
// discipline as the kernels they measure.

//bipie:kernel
func (ps *probeSet) runUnpack(w uint8) {
	ps.unpacked[w] = ps.packed[w].UnpackSmallest(ps.unpacked[w], 0, probeRows)
}

//bipie:kernel
func (ps *probeSet) runPackedCmp(w uint8) {
	ps.packed[w].CmpLEPacked(ps.mask, 0, ps.thresh[w], false)
}

//bipie:kernel
func (ps *probeSet) runCmpMask(ws int) {
	switch ws {
	case 1:
		sel.CmpMaskWords(ps.mask, ps.u8, 127, sel.CmpLE, true)
	case 2:
		sel.CmpMaskWords(ps.mask, ps.u16, 1<<15, sel.CmpLE, true)
	case 4:
		sel.CmpMaskWords(ps.mask, ps.u32, 1<<31, sel.CmpLE, true)
	default:
		sel.CmpMaskWords(ps.mask, ps.u64, 1<<63, sel.CmpLE, true)
	}
}

//bipie:kernel
func (ps *probeSet) runRLECmpSpans() {
	ps.nSpans = ps.rle.CmpSpans(ps.spans, encoding.RunLE, ps.rleThresh, 0, probeRows)
}

// cmpSpansWindowRows sizes the short-window CmpSpans probe: small enough
// that per-call overhead (run lookup, call setup) is a visible fraction of
// the total, so subtracting the amortized per-run figure isolates it.
const cmpSpansWindowRows = 256

//bipie:kernel
func (ps *probeSet) runRLECmpSpansWindow() {
	ps.nSpans = ps.rle.CmpSpans(ps.spans, encoding.RunLE, ps.rleThresh, 0, cmpSpansWindowRows)
}

//bipie:kernel
func (ps *probeSet) runApplySpans() {
	sel.ApplySpans(ps.mask, ps.qualSpans[:ps.nQual], true)
}

//bipie:kernel
func (ps *probeSet) runCompactIndices() {
	ps.idx = ps.idx[:probeRows]
	ps.idx = sel.CompactIndices(ps.idx, ps.halfMask)
}

//bipie:kernel
func (ps *probeSet) runCompact(ws int) {
	switch ws {
	case 1:
		sel.CompactU8(ps.out8, ps.u8, ps.halfMask)
	case 2:
		sel.CompactU16(ps.out16, ps.u16, ps.halfMask)
	case 4:
		sel.CompactU32(ps.out32, ps.u32, ps.halfMask)
	default:
		sel.CompactU64(ps.out64, ps.u64, ps.halfMask)
	}
}

//bipie:kernel
func (ps *probeSet) runGather(ws int) {
	w := uint8(ws * 8)
	ps.gatherBuf[ws] = sel.GatherIndices(ps.gatherBuf[ws], ps.packed[w], 0, ps.idx)
}

//bipie:kernel
func (ps *probeSet) runDeltaDecode() {
	ps.delta.DecodeWith(ps.i64buf, 0, ps.diffs)
}

//bipie:kernel
//bipie:nobce
func (ps *probeSet) runDictBitmap() {
	ids := ps.idsBuf[:probeRows]
	ps.packed[8].UnpackUint8(ids, 0)
	out := ps.mask[:len(ids)]
	for i, id := range ids {
		out[i] = ps.bitmapMask[id]
	}
}

//bipie:kernel
func (ps *probeSet) runInReg(ws int) {
	switch ws {
	case 1:
		agg.InRegisterSum8(ps.groups4, ps.u8, inRegProbeGroups, ps.sums4)
	case 2:
		agg.InRegisterSum16(ps.groups4, ps.u16, inRegProbeGroups, ps.sums4)
	default:
		agg.InRegisterSum32(ps.groups4, ps.u32, inRegProbeGroups, ps.sums4)
	}
}

//bipie:kernel
func (ps *probeSet) runSortPrepare() {
	ps.sorter.Prepare(ps.groups64, nil)
}

//bipie:kernel
func (ps *probeSet) runSortSum() {
	ps.sorter.SumPacked(ps.packed[16], 0, ps.sums64)
}

//bipie:kernel
func (ps *probeSet) runMulti1() {
	ps.multi1.Accumulate(ps.groups64, ps.cols1)
}

//bipie:kernel
func (ps *probeSet) runMulti4() {
	ps.multi4.Accumulate(ps.groups64, ps.cols4)
}

//bipie:kernel
func (ps *probeSet) runCountScalar() {
	agg.ScalarCountMulti(ps.groups64, ps.sums64)
}

//bipie:kernel
func (ps *probeSet) runCountInReg() {
	agg.InRegisterCount(ps.groups4, inRegProbeGroups, ps.sums4)
}

//bipie:kernel
func (ps *probeSet) runScalarSum() {
	agg.ScalarSumRowAtATimeInto(&ps.scScratch, ps.groups64, ps.cols1, ps.sumAcc1)
}

//bipie:kernel
func (ps *probeSet) runScalarSumMixed() {
	agg.ScalarSumRowAtATimeInto(&ps.scScratch, ps.groups64, ps.colsMixed, ps.sumAccMixed)
}

//bipie:kernel
func (ps *probeSet) runReduce() {
	ps.reduced = agg.ReduceSum(ps.valsU32)
}

//bipie:kernel
func (ps *probeSet) runSumExpr(node int) {
	ps.sumProg.Eval(ps.sumBufs, node, probeRows)
}

// ---------------------------------------------------------------------------
// Calibration driver.

// measure times one probe body and reports the median run in cycles/unit,
// where units is the per-run denominator (rows for most probes, runs for
// the RLE ones, selected rows for gather).
func measure(units int, fn func()) float64 {
	return perfstat.Time(units, probeMinTime, fn).CyclesPerRow()
}

// measureN batches reps probe-body calls into each timed interval. The
// cheap kernels finish one pass in a few µs, short enough that a single
// timer interrupt or core migration lands inside most intervals and the
// median still wobbles 2×; batching restores the tens-of-µs interval size
// the heavyweight probes get for free.
func measureN(units, reps int, fn func()) float64 {
	return perfstat.Time(units*reps, probeMinTime, func() {
		for i := 0; i < reps; i++ {
			fn()
		}
	}).CyclesPerRow()
}

// aggProbe is one aggregation probe body and how many calls of it make one
// timed run.
type aggProbe struct {
	reps int
	fn   func()
}

// probeRounds is how many runs of each probe measureTogether takes.
const probeRounds = 9

// measureTogether times the probes in turn, one run each, round after
// round, and returns each probe's median run in cycles/row. agg.Choose
// compares these figures with each other, so they must come from the same
// stretch of time: a slow spell of the machine — a neighbour, a sibling
// test process — then falls on every probe alike and leaves their ratios
// standing, where back-to-back measureN calls give each probe its own
// stretch and a spell that covers one and not its rival moves the border
// between them.
func measureTogether(units int, probes []aggProbe) []float64 {
	runs := make([][probeRounds]time.Duration, len(probes))
	for r := 0; r < probeRounds; r++ {
		for i, pr := range probes {
			start := time.Now()
			for k := 0; k < pr.reps; k++ {
				pr.fn()
			}
			runs[i][r] = time.Since(start)
		}
	}
	out := make([]float64, len(probes))
	for i, pr := range probes {
		slices.Sort(runs[i][:])
		out[i] = perfstat.CyclesPerRow(runs[i][probeRounds/2], units*pr.reps)
	}
	return out
}

// floorCost keeps fitted coefficients strictly positive: a probe that
// measures ~0 (or a fit whose subtraction goes negative on a noisy run)
// must not produce a free or negative strategy in the chooser.
func floorCost(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	return v
}

// Calibrate runs the full probe pass and fits a fresh Profile. It takes
// tens of milliseconds and allocates only probe buffers; `make calibrate`
// checks its result in as the profile Active serves.
func Calibrate() *Profile {
	ps := newProbeSet()
	p := &Profile{
		Source:      "calibrated",
		Format:      FormatVersion,
		Machine:     CurrentMachine(),
		Kernels:     make(map[string]float64, 4*len(probeWidths)),
		BytesPerRow: make(map[string]float64, 2*len(probeWidths)),
	}
	for _, w := range probeWidths {
		w := w
		p.Kernels[fmt.Sprintf("unpack.w%d", w)] = measureN(probeRows, 2, func() { ps.runUnpack(w) })
		p.Kernels[fmt.Sprintf("packedcmp.w%d", w)] = measureN(probeRows, 2, func() { ps.runPackedCmp(w) })
		p.BytesPerRow[fmt.Sprintf("unpack.w%d", w)] = float64(w) / 8
		p.BytesPerRow[fmt.Sprintf("packedcmp.w%d", w)] = float64(w) / 8
	}
	for _, ws := range cmpMaskWordSizes {
		ws := ws
		p.Kernels[fmt.Sprintf("cmpmask.w%d", ws)] = measureN(probeRows, 4, func() { ps.runCmpMask(ws) })
		p.Kernels[fmt.Sprintf("sel.compact.w%d", ws)] = measureN(probeRows, 4, func() { ps.runCompact(ws) })
		p.Kernels[fmt.Sprintf("sel.gather.w%d", ws)] = measureN(ps.nIdx, 4, func() { ps.runGather(ws) })
	}
	p.Kernels["rle.cmpspans"] = measureN(probeRows/probeRunLen, 8, ps.runRLECmpSpans)
	// Per-call fixed cost of a span comparison: time a window short enough
	// that call overhead shows, then subtract the amortized per-run share.
	// The span path runs one CmpSpans per batch, so at 4096-row batches
	// this floor is what keeps low-cost predictions honest.
	winCycles := measureN(1, 256, ps.runRLECmpSpansWindow)
	p.Kernels["rle.cmpspans.fixed"] = floorCost(
		winCycles - float64(cmpSpansWindowRows/probeRunLen)*p.Kernels["rle.cmpspans"])
	// ApplySpans cost tracks the rows it stamps selected, not the rows it
	// clears (those compile to memclr); fit it per qualifying row.
	p.Kernels["sel.applyspans"] = measureN(ps.qualRows, 8, ps.runApplySpans)
	p.Kernels["sel.compactidx"] = measureN(probeRows, 2, ps.runCompactIndices)
	p.Kernels["delta.decode"] = measureN(probeRows, 2, ps.runDeltaDecode)
	p.Kernels["dict.bitmap"] = measureN(probeRows, 4, ps.runDictBitmap)
	for _, lane := range sumExprLanes {
		add, mul := ps.sumAdd[lane], ps.sumMul[lane]
		p.Kernels[fmt.Sprintf("sumexpr.add.w%d", lane)] = measureN(probeRows, 4, func() { ps.runSumExpr(add) })
		p.Kernels[fmt.Sprintf("sumexpr.mul.w%d", lane)] = measureN(probeRows, 4, func() { ps.runSumExpr(mul) })
	}
	p.Kernels["sumexpr.div"] = measure(probeRows, func() { ps.runSumExpr(ps.sumDiv) })

	// Aggregation coefficients, fitted into the agg.CostProfile shape.
	c := measureTogether(probeRows, []aggProbe{
		{2, func() { ps.runInReg(1) }}, {2, func() { ps.runInReg(2) }}, {2, func() { ps.runInReg(4) }},
		{1, ps.runSortPrepare}, {2, ps.runSortSum},
		{2, ps.runMulti1}, {2, ps.runMulti4},
		{4, ps.runScalarSum}, {2, ps.runScalarSumMixed},
		{4, ps.runCountScalar}, {4, ps.runCountInReg},
		{8, ps.runReduce},
	})
	inReg1, inReg2, inReg4 := c[0]/inRegProbeGroups, c[1]/inRegProbeGroups, c[2]/inRegProbeGroups
	sortFixed, sortPerSum := c[3], c[4]
	multi1, multi4 := c[5], c[6]
	multiPerSum := floorCost((multi4 - multi1) / 3)
	scalarPerSum, scalarMixed := c[7], c[8]/float64(len(ps.colsMixed))
	countScalar, countInReg := c[9], c[10]/inRegProbeGroups
	reducePerSum := c[11]
	p.Agg = agg.CostProfile{
		InRegPerGroup1:    floorCost(inReg1),
		InRegPerGroup2:    floorCost(inReg2),
		InRegPerGroup4:    floorCost(inReg4),
		SortFixed:         floorCost(sortFixed),
		SortPerSum:        floorCost(sortPerSum),
		MultiFixed:        floorCost(multi1 - multiPerSum),
		MultiPerSum:       multiPerSum,
		ScalarPerSum:      floorCost(scalarPerSum),
		ScalarMixedPerSum: floorCost(scalarMixed),

		CountScalar:        floorCost(countScalar),
		CountInRegPerGroup: floorCost(countInReg),

		ReducePerSum: floorCost(reducePerSum),
	}
	for k, v := range p.Kernels {
		p.Kernels[k] = floorCost(v)
	}
	return p
}

// CurrentMachine describes the machine this process runs on.
func CurrentMachine() Machine {
	return Machine{HzEstimate: perfstat.Hz(), Cores: perfstat.Cores(), GOARCH: runtime.GOARCH}
}
