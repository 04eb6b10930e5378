package engine

import (
	"context"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/obs"
	"bipie/internal/sel"
)

// execState is the mutable half of a scan: every batch buffer and
// accumulator one execution of a segPlan needs. It is built once per pool
// entry and recycled across executions, so a steady-state scan performs no
// heap allocation — the discipline bipievet's hotalloc analyzer enforces on
// the methods below. Nothing compiled lives here: the plan's programs — the
// aggregate inputs' and the residual predicate's — are immutable and
// shared, and only their vectors are per execution.
type execState struct {
	plan *segPlan

	// Per-segment accumulators, special slot included.
	counts []int64
	sumAcc [][]int64

	// Strategy state.
	multi  *agg.MultiAgg
	sorter *agg.SortBased

	// Reusable batch buffers.
	predScratch []predScratch // per pushed conjunct domain-specific scratch
	// The residual predicate's node vectors and the mask vectors its tree
	// needs beside the batch's own (plans with a residual only).
	residBufs progBufs
	masks     []sel.ByteVec
	// Span-path buffers (allocated only for spanAgg plans): the running
	// span intersection, the current conjunct's spans, and the intersect
	// target that swaps with the accumulator; spans is the filter stage's
	// result for the current batch, a view of whichever of the two holds it.
	spanAcc    []sel.Span
	spanEval   []sel.Span
	spanTmp    []sel.Span
	spans      []sel.Span
	selVec     sel.ByteVec
	groupBuf   []uint8
	compGroups []uint8
	idx        sel.IndexVec
	// progBufs holds the vectors of the plan's sum-expression program;
	// colViews points each sum slot at its node's vector (nil for slots
	// that never materialize).
	progBufs
	colViews []*bitpack.Unpacked
	// multiCols is what a multi-aggregate plan's Accumulate reads: the
	// vectors of the plan's multiInputs nodes, nil for a walked product.
	multiCols []*bitpack.Unpacked
	// Sum-kind subset views, used when MIN/MAX slots interleave with sums.
	sumColsScratch []*bitpack.Unpacked
	sumAccScratch  [][]int64
	scalarScratch  agg.ScalarScratch
	mapScratch     mapScratch
	// mapped marks a batch whose group ids the filter stage's fused pass
	// already wrote into groupBuf, the special one blended in: the
	// aggregate stage maps none.
	mapped bool

	// stats counts this unit's batch outcomes; the driver sums the units
	// after the workers finish, so the hot loop touches no shared state.
	stats ScanStats

	// trace, when non-nil, receives per-phase timings through the
	// nil-checked hooks in trace.go. The driver attaches a fresh per-unit
	// tracer before a traced scan and detaches it before release; the
	// steady-state (untraced) path sees a nil pointer and one predictable
	// branch per phase boundary.
	trace *obs.Tracer
}

// predScratch is one pushed conjunct's batch scratch, owned by the exec
// state so the immutable predicate itself carries no mutable buffers. Each
// predicate's initScratch sizes only the fields its domain touches: the
// bitpack unpack fallback grows unpacked lazily, RLE predicates fill
// spans, dict bitmap predicates unpack ids, delta predicates decode i64.
type predScratch struct {
	unpacked *bitpack.Unpacked
	ids      []uint8
	i64      []int64
	diffs    []uint64
	spans    []sel.Span
}

// newExecState allocates the full mutable state for one execution of sp.
// Everything sized here is sized once; the batch loop only reslices.
func newExecState(sp *segPlan) *execState {
	e := &execState{plan: sp}
	e.counts = make([]int64, sp.domain)
	e.sumAcc = make([][]int64, len(sp.sums))
	for i := range e.sumAcc {
		e.sumAcc[i] = make([]int64, sp.domain)
	}
	if sp.residual != nil {
		e.residBufs = newProgBufs(&sp.residual.boundProg)
		// One more than the tree needs: behind pushed conjuncts the root
		// evaluates beside the batch's mask, not into it.
		e.masks = make([]sel.ByteVec, 1+sp.residual.root.scratch())
		for i := range e.masks {
			e.masks[i] = sel.NewByteVec(colstore.BatchRows)
		}
	}
	e.predScratch = make([]predScratch, len(sp.pushed))
	for i, pp := range sp.pushed {
		pp.initScratch(&e.predScratch[i])
	}
	if sp.spanAgg {
		// A maximal span list over a batch never exceeds n/2+1 entries
		// (spans are disjoint and non-adjacent, so each costs ≥2 rows).
		e.spanAcc = make([]sel.Span, colstore.BatchRows/2+1)
		e.spanEval = make([]sel.Span, colstore.BatchRows/2+1)
		e.spanTmp = make([]sel.Span, colstore.BatchRows/2+1)
	}
	e.selVec = sel.NewByteVec(colstore.BatchRows)
	if sp.strategy != agg.StrategyReduce {
		e.groupBuf = make([]uint8, colstore.BatchRows)
		e.compGroups = make([]uint8, colstore.BatchRows)
	}
	if !sp.eliminated {
		e.mapScratch = sp.mapper.newScratch()
		e.progBufs = newProgBufs(&sp.boundProg)
		e.colViews = make([]*bitpack.Unpacked, len(sp.sums))
		for i, si := range sp.sums {
			if sp.materialize[i] {
				e.colViews[i] = e.nodeBufs[si.term.Node]
			}
		}
	}
	if len(sp.sumIdx) != len(sp.sums) {
		e.sumColsScratch = make([]*bitpack.Unpacked, len(sp.sumIdx))
		e.sumAccScratch = make([][]int64, len(sp.sumIdx))
	}
	if sp.multiLayout != nil {
		e.multi = sp.multiLayout.NewState()
		e.multiCols = make([]*bitpack.Unpacked, len(sp.multiInputs))
		for j, n := range sp.multiInputs {
			if n >= 0 {
				e.multiCols[j] = e.nodeBufs[n]
			}
		}
	}
	if sp.strategy == agg.StrategySortBased {
		e.sorter = agg.NewSortBased(sp.domain, sp.special)
	}
	e.reset()
	return e
}

// reset returns the state to the post-construction baseline so the next
// execution starts clean: accumulators zeroed (MIN/MAX back to their
// sentinels), stats cleared. Buffer capacity is
// kept — that is the point of pooling.
func (e *execState) reset() {
	for i := range e.counts {
		e.counts[i] = 0
	}
	for i := range e.sumAcc {
		acc := e.sumAcc[i]
		switch e.plan.sums[i].kind {
		case Min:
			agg.InitMin(acc)
		case Max:
			agg.InitMax(acc)
		default:
			for j := range acc {
				acc[j] = 0
			}
		}
	}
	if e.multi != nil {
		e.multi.Reset()
	}
	e.stats = ScanStats{}
	e.trace = nil
}

// release resets the state and returns it to its plan's pool.
func (e *execState) release() {
	e.reset()
	e.plan.pool.Put(e)
}

// scanBatches runs the batch pipeline (paper §3: filter → selection → group
// map → aggregate) over a contiguous batch range, checking for cancellation
// between batches — the driver's cancellation points, one per 4096 rows.
//
//bipie:kernel
func (e *execState) scanBatches(ctx context.Context, batches []colstore.Batch) error {
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return err
		}
		if b.N == 0 {
			continue
		}
		e.traceBatch(b.Start)
		if how, selected := e.filterBatch(b); selected > 0 {
			e.aggregateBatch(b, how, selected)
		}
	}
	return nil
}

// selection is a batch's filter-stage outcome as the aggregate stage
// consumes it: which operator, if any, removes the rejected rows.
type selection uint8

const (
	selWhole   selection = iota // every row survives; no selection operator runs
	selSpecial                  // selection byte vector fused into the group map (paper §4.3)
	selGather                   // fused unpack of the selected positions only (paper §4.2)
	selCompact                  // full unpack, then physical compaction (paper §4.1)
	selSpans                    // spanAgg plans: run-aligned spans, no row ever materialized
)

// filterBatch is the pipeline's filter stage. Pushed conjuncts evaluate in
// their encoded domains first; the residual predicate (if any) evaluates its
// value program over the whole batch, turns it into a mask and ANDs in;
// deleted rows drop out last. Each conjunct is
// refined against the encoding's batch metadata first: a proven
// all-rejecting conjunct skips the batch before any kernel touches data,
// and a proven all-matching one drops out of the conjunction. The result is
// the row mask e.selVec[:b.N] — with a fused plan's pass also the batch's
// group ids, blended, and its kept count (fusedFilter, e.mapped) — or, for
// spanAgg plans, the span list
// e.spans: every live conjunct emits run-aligned spans and the spans
// intersect in span space, so no selection vector, no unpack, no per-row
// work happens at all and the batch costs O(runs + spans), which is what
// buys the low-selectivity speedup the paper gets from operating on run
// boundaries instead of rows. filterBatch records the batch in e.stats and
// returns how many rows survive and how the aggregate stage selects them.
//
//bipie:kernel
func (e *execState) filterBatch(b colstore.Batch) (selection, int) {
	sp := e.plan
	vec := e.selVec[:b.N]
	acc, tmp := e.spanAcc, e.spanTmp
	nAcc, kept := 0, 0
	filled := false
	e.mapped = false
	var domains domainSet
	if sp.spanAgg {
		domains = 1 << domRLE
	}
	for i, pp := range sp.pushed {
		t0 := e.traceStart()
		op := pp.planOp()
		if !op.constant() && !sp.opts.DisableZoneMaps {
			op = pp.batchOp(b)
		}
		e.traceEnd(obs.PhaseZoneMap, t0, b.N)
		if op == pushNone {
			// Distinguish a zone-map skip from a predicate the plan already
			// proved constant against segment metadata.
			e.stats.note(b.N, 0, selWhole, 0)
			if pp.planOp() != pushNone {
				e.stats.BatchesSkipped++
			}
			return selWhole, 0
		}
		if op == pushAll {
			continue
		}
		t0 = e.traceStart()
		switch {
		case sp.fused != nil && b.N == bitpack.GroupsRows && sp.seg.DeletedRows() == 0:
			// The plan's one live conjunct, with the group map riding along.
			kept, e.mapped = sp.fused.eval(b, vec, e.groupBuf[:b.N]), true
			domains |= 1 << domPacked
		case !sp.spanAgg:
			pp.eval(b, vec, !filled, &e.predScratch[i])
			domains |= 1 << pp.domain()
		case !filled:
			nAcc = sp.spanPreds[i].evalSpans(b, acc)
		default:
			k := sp.spanPreds[i].evalSpans(b, e.spanEval)
			nAcc = sel.IntersectSpans(tmp, acc[:nAcc], e.spanEval[:k])
			acc, tmp = tmp, acc
		}
		e.traceEnd(obs.PhaseEncodedFilter, t0, b.N)
		filled = true
		if sp.spanAgg && nAcc == 0 {
			break
		}
	}
	if rp := sp.residual; rp != nil {
		t0 := e.traceStart()
		e.evalProgram(&rp.boundProg, &e.residBufs, b, selWhole, b.N)
		e.traceEnd(obs.PhaseDecode, t0, b.N)
		t0 = e.traceStart()
		mask := vec
		if filled {
			mask = e.masks[0][:b.N]
		}
		e.evalMask(rp.root, mask, 1)
		if filled {
			vec.And(mask)
		}
		e.traceEnd(obs.PhaseSelection, t0, b.N)
		filled = true
	}

	// With nothing evaluated — no filter at all, or every pushed conjunct
	// resolved to pushAll and no residual remains — the batch is
	// metadata-proven fully selected. It still needs a mask when rows are
	// deleted or a forced method must run over it; a span plan (which has
	// neither) takes the one span covering it.
	forced := sp.opts.ForceSelection != nil
	how, selected := selWhole, b.N
	switch {
	case sp.spanAgg:
		how = selSpans
		if filled {
			selected = sel.SpanRows(acc[:nAcc])
		} else {
			acc[0], nAcc = sel.Span{End: int32(b.N)}, 1
		}
		e.spans = acc[:nAcc]
	case e.mapped:
		// The fused pass counted the kept rows and left neither deletes nor
		// a forced method to apply.
		selected = kept
		if selected > 0 && selected < b.N {
			how = e.chooseSelection(float64(selected) / float64(b.N))
		}
	case filled || forced || sp.seg.DeletedRows() != 0:
		if !filled {
			for i := range vec {
				vec[i] = sel.Selected
			}
		}
		t0 := e.traceStart()
		sp.seg.ApplyDeletes(vec, b.Start)
		selected = vec.CountSelected()
		e.traceEnd(obs.PhaseSelection, t0, b.N)
		if selected > 0 && (selected < b.N || forced) {
			how = e.chooseSelection(float64(selected) / float64(b.N))
		}
	}
	e.stats.note(b.N, selected, how, domains)
	return how, selected
}

// chooseSelection picks a selection method for one batch from measured
// selectivity (paper §3) — the one specialization decision that stays at
// exec time, because it depends on data the plan cannot see.
func (e *execState) chooseSelection(selectivity float64) selection {
	sp := e.plan
	var m sel.Method
	if sp.opts.ForceSelection != nil {
		m = *sp.opts.ForceSelection
		if m == sel.MethodSpecialGroup && sp.special < 0 {
			m = sel.MethodCompact
		}
	} else {
		// The gather/compact crossover was resolved at plan time from the cost
		// profile (static anchors or calibrated kernel balance).
		m = sel.ChooseAt(selectivity, sp.selCrossover, sp.special >= 0)
		if sp.strategy == agg.StrategySortBased && m == sel.MethodCompact {
			// Sort-based aggregation consumes a selection index vector and
			// gathers from raw packed columns; physical compaction would force
			// a full unpack it never needs (paper §5.2).
			m = sel.MethodGather
		}
	}
	switch m {
	case sel.MethodSpecialGroup:
		return selSpecial
	case sel.MethodGather:
		return selGather
	default:
		return selCompact
	}
}

// aggregateBatch is the pipeline's aggregate stage: group map → count →
// decode → sum over the rows the filter stage left, removed the way how
// says. Whole and special-group batches aggregate every row — with
// selSpecial the selection byte vector is fused into the group map first, so
// rejected rows land in the special slot; gather and compaction aggregate
// only the selected rows; a span batch never maps a group or loads a value —
// its one group's COUNT is the span row total and its sums are the RLE
// columns' run-domain sums over the spans — and a Reduce plan maps no group
// either (reduceBatch).
//
//bipie:kernel
func (e *execState) aggregateBatch(b colstore.Batch, how selection, selected int) {
	sp := e.plan
	if how == selSpans {
		e.counts[0] += int64(selected)
		t0 := e.traceStart()
		for _, i := range sp.spanIdx {
			e.sumAcc[i][0] += sp.sums[i].rle.SumSpans(b.Start, e.spans)
		}
		e.traceEnd(obs.PhaseAggregate, t0, selected)
		return
	}
	if sp.strategy == agg.StrategyReduce {
		e.reduceBatch(b, how, selected)
		return
	}
	groups := e.groupBuf[:b.N]
	if !e.mapped {
		var blend sel.ByteVec
		if how == selSpecial {
			blend = e.selVec[:b.N]
		}
		t0 := e.traceStart()
		sp.mapper.mapBatch(&e.mapScratch, b.Start, b.N, groups, blend, uint8(sp.special))
		e.traceEnd(obs.PhaseGroupMap, t0, b.N)
	}

	// k rows reach the kernels, their values loaded the batch's own way —
	// except that sort-based aggregation consumes a selection index vector:
	// its sorted indices address batch rows, so packed columns are gathered
	// straight from their packed form and expression inputs are evaluated
	// over the whole batch.
	sortBased := sp.strategy == agg.StrategySortBased
	var idx sel.IndexVec
	if how == selGather || how == selCompact {
		groups, idx = e.compactSelected(groups, how == selGather || sortBased)
	}
	k := len(groups)
	load, loaded := how, k
	if sortBased {
		load, loaded = selWhole, b.N
	}

	// Run-summable slots aggregate on the encoded runs; their batches are
	// always whole (the run path is only enabled for unfiltered single-group
	// segments). The phase's two intervals are one pass over the batch: its
	// rows are credited once, when the second closes.
	t0 := e.traceStart()
	for _, i := range sp.runIdx {
		e.sumAcc[i][0] += sp.sums[i].rle.SumRange(b.Start, b.N)
	}
	e.countGroups(groups, idx)
	e.traceEnd(obs.PhaseAggregate, t0, 0)
	t0 = e.traceStart()
	e.evalProgram(&sp.boundProg, &e.progBufs, b, load, loaded)
	e.traceEnd(obs.PhaseDecode, t0, b.N)
	t0 = e.traceStart()
	e.applySums(groups, e.colViews, b.Start)
	e.traceEnd(obs.PhaseAggregate, t0, k)
}

// reduceBatch is the aggregate stage of a Reduce plan: one group and no
// group ids, so nothing is mapped, compacted beside the values or counted
// per row. The k rows the filter kept are the batch's COUNT; the leaves load
// the batch's own way — only a gathered load needs the kept rows' positions
// — and each SUM slot adds one register reduction of its vector.
//
//bipie:kernel
func (e *execState) reduceBatch(b colstore.Batch, how selection, k int) {
	sp := e.plan
	if how == selGather && len(sp.evalOrder) > 0 {
		t0 := e.traceStart()
		e.idx = sel.CompactIndices(e.idx, e.selVec[:b.N])
		e.traceEnd(obs.PhaseSelection, t0, b.N)
	}
	t0 := e.traceStart()
	e.evalProgram(&sp.boundProg, &e.progBufs, b, how, k)
	e.traceEnd(obs.PhaseDecode, t0, b.N)
	t0 = e.traceStart()
	e.counts[0] += int64(k)
	for _, i := range sp.runIdx {
		e.sumAcc[i][0] += sp.sums[i].rle.SumRange(b.Start, b.N)
	}
	for _, i := range sp.sumIdx {
		e.sumAcc[i][0] += agg.ReduceSum(e.colViews[i])
	}
	e.traceEnd(obs.PhaseAggregate, t0, k)
}

// compactSelected is the selection operator of gather and compaction: the
// group ids of the rows e.selVec keeps, moved to the front of compGroups,
// and — when the kernels will address rows by position — those positions in
// e.idx. It is a function of its own so the two inlined compaction loops
// keep their cursors in registers: spelled out inside aggregateBatch, one
// of them is spilled and its loop runs at half speed.
//
//bipie:kernel
func (e *execState) compactSelected(groups []uint8, positions bool) ([]uint8, sel.IndexVec) {
	vec := e.selVec[:len(groups)]
	t0 := e.traceStart()
	if positions {
		e.idx = sel.CompactIndices(e.idx, vec)
	}
	e.traceEnd(obs.PhaseSelection, t0, len(vec))
	t0 = e.traceStart()
	k := sel.CompactU8(e.compGroups[:len(vec)], groups, vec)
	e.traceEnd(obs.PhaseSelection, t0, len(vec))
	return e.compGroups[:k], e.idx
}

// countGroups counts a batch's rows per group, the way the segment's sum
// strategy provides: sort-based aggregation counts while it buckets the rows
// (idx are their batch positions, nil for a whole batch), multi-aggregate
// carries the count as a field of its accumulator row and needs no pass
// here, and the others run a COUNT(*) kernel — in-register for the smallest
// domains, the threshold being this implementation's measured crossover
// rather than the paper's 32-lane one.
//
//bipie:kernel
func (e *execState) countGroups(groups []uint8, idx sel.IndexVec) {
	switch {
	case e.plan.strategy == agg.StrategySortBased:
		e.sorter.Prepare(groups, idx)
		e.sorter.AddCounts(e.counts)
	case e.plan.strategy == agg.StrategyMultiAggregate:
		// counted in Accumulate
	case e.plan.domain <= agg.InRegisterCountMaxGroups:
		agg.InRegisterCount(groups, e.plan.domain, e.counts)
	default:
		agg.ScalarCountMulti(groups, e.counts)
	}
}

// evalProgram runs one of the plan's sum-expression programs — the
// aggregate inputs' or the residual predicate's — for one batch into its
// vectors. load only decides how the leaves load — every row, or only the
// selected ones, gathered at the positions in e.idx (selGather) or unpacked
// in full and physically compacted (selCompact); each column is unpacked
// once, however many expressions read it — and every operator then runs
// over the k loaded rows, so under gather and compaction expressions are
// never evaluated for rows the filter rejected. Every node's vector was
// allocated at its lane in newExecState, so the kernels fill it in place.
//
//bipie:kernel
func (e *execState) evalProgram(bp *boundProg, pb *progBufs, b colstore.Batch, load selection, k int) {
	for _, i := range bp.evalOrder {
		buf, leaf := pb.nodeBufs[i], bp.progLeaves[i]
		switch {
		case leaf.packed == nil && leaf.col == nil:
			bp.prog.Eval(pb.nodeBufs, i, k)
		case leaf.packed == nil:
			e.loadDecoded(buf, pb.leafI64[i][:b.N], leaf.col, b, load)
		case load == selGather:
			sel.GatherIndices(buf, leaf.packed, b.Start, e.idx)
		case load == selCompact:
			sel.CompactSelect(buf, leaf.packed, b.Start, b.N, e.selVec[:b.N])
		default:
			leaf.packed.UnpackSmallest(buf, b.Start, b.N)
		}
	}
}

// loadDecoded fills a leaf vector from a column that is not bit-packed: a
// full int64 decode into vals, then the wanted rows carried into the 8-byte
// lane — the two's-complement round trip through uint64 is exact.
//
//bipie:kernel
//bipie:nobce
func (e *execState) loadDecoded(buf *bitpack.Unpacked, vals []int64, col encoding.IntColumn, b colstore.Batch, load selection) {
	col.Decode(vals, b.Start)
	if load == selGather {
		buf.Resize(len(e.idx))
		dst := buf.U64[:len(e.idx)]
		for j, ix := range e.idx {
			dst[j] = uint64(vals[ix])
		}
		return
	}
	buf.Resize(len(vals))
	dst := buf.U64[:len(vals)]
	for j, v := range vals {
		dst[j] = uint64(v)
	}
	if load == selCompact {
		buf.Resize(sel.CompactU64(dst, dst, e.selVec[:b.N]))
	}
}

// applySums feeds aligned (groups, values) vectors to the segment's sum
// strategy; MIN/MAX inputs always take the scalar extremum kernel.
// Multi-aggregate reads its own input list, e.multiCols, where walked
// products have no vector and their operands do. The
// sort-based strategy, whose sorter was already prepared with this batch's
// rows, reads whole-batch vectors through its sorted indices instead, and
// bit-packed columns straight from their packed form at segment row start.
//
//bipie:kernel
func (e *execState) applySums(groups []uint8, cols []*bitpack.Unpacked, start int) {
	sp := e.plan
	if len(sp.sums) == 0 {
		return
	}
	for _, i := range sp.extIdx {
		if sp.sums[i].kind == Min {
			agg.ScalarMin(groups, cols[i], e.sumAcc[i])
		} else {
			agg.ScalarMax(groups, cols[i], e.sumAcc[i])
		}
	}
	if len(sp.sumIdx) == 0 {
		return
	}
	if sp.strategy == agg.StrategyMultiAggregate {
		e.multi.Accumulate(groups, e.multiCols)
		return
	}
	sumCols, sumAcc := cols, e.sumAcc
	if len(sp.sumIdx) != len(sp.sums) {
		for k, i := range sp.sumIdx {
			e.sumColsScratch[k] = cols[i]
			e.sumAccScratch[k] = e.sumAcc[i]
		}
		sumCols, sumAcc = e.sumColsScratch, e.sumAccScratch
	}
	switch sp.strategy {
	case agg.StrategyInRegister:
		for k, col := range sumCols {
			switch col.WordSize {
			case 1:
				agg.InRegisterSum8(groups, col.U8, sp.domain, sumAcc[k])
			case 2:
				agg.InRegisterSum16(groups, col.U16, sp.domain, sumAcc[k])
			default:
				agg.InRegisterSum32(groups, col.U32, sp.domain, sumAcc[k])
			}
		}
	case agg.StrategySortBased:
		for k, i := range sp.sumIdx {
			if packed := sp.sums[i].packed; packed != nil {
				e.sorter.SumPacked(packed, start, sumAcc[k])
			} else {
				e.sorter.SumUnpacked(sumCols[k], sumAcc[k])
			}
		}
	default:
		agg.ScalarSumRowAtATimeInto(&e.scalarScratch, groups, sumCols, sumAcc)
	}
}

// finalize folds strategy state and frame-of-reference offsets into the
// per-group accumulators and emits result rows for groups with at least one
// surviving row. Row assembly allocates per scan, not per batch, so it sits
// outside the hotalloc-guarded exec path.
func (e *execState) finalize() []Row {
	sp := e.plan
	if e.multi != nil {
		dst := e.sumAcc
		if len(sp.sumIdx) != len(sp.sums) {
			dst = make([][]int64, len(sp.sumIdx))
			for k, i := range sp.sumIdx {
				dst[k] = e.sumAcc[i]
			}
		}
		e.multi.AddSums(dst)
		e.multi.AddCounts(e.counts)
	}
	// The kernels aggregated each slot's node vector; fold the rest of its
	// term ±node + Add back per group — the sign and Add per contributing
	// row for a sum (this is where a bit-packed column's frame of
	// reference returns), Add once for an extremum, whose terms are never
	// negated. Wrapping arithmetic throughout, as the row-at-a-time oracle.
	for i := range sp.sums {
		si := &sp.sums[i]
		acc := e.sumAcc[i]
		for g := 0; g < sp.realGroups; g++ {
			switch {
			case e.counts[g] == 0:
			case si.kind != Sum && si.term.IsConst():
				acc[g] = si.term.Add
			case si.kind != Sum:
				acc[g] += si.term.Add
			case si.term.Neg:
				acc[g] = si.term.Add*e.counts[g] - acc[g]
			default:
				acc[g] += si.term.Add * e.counts[g]
			}
		}
	}
	var rows []Row
	for g := 0; g < sp.realGroups; g++ {
		if e.counts[g] == 0 {
			continue
		}
		row := Row{Keys: sp.mapper.keys(g), Stats: make([]Stat, len(sp.aggSlot))}
		for ai, slot := range sp.aggSlot {
			st := Stat{Count: e.counts[g]}
			if slot >= 0 {
				st.Sum = e.sumAcc[slot][g]
			}
			row.Stats[ai] = st
		}
		rows = append(rows, row)
	}
	return rows
}
