package engine

import (
	"math"

	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/costmodel"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/sel"
)

// Filter pushdown onto encoded data — "never decode what you can discard",
// polymorphic over the segment's column encodings. Simple comparisons of a
// bare column against a constant, and string predicates on dictionary
// columns, are peeled off the predicate tree and evaluated in each
// encoding's own domain:
//
//   - bit-packed columns translate the constant into frame-of-reference
//     offset space once per segment and compare packed words directly
//     (Willhalm et al., the technique the paper's scan builds on, §7);
//   - RLE columns resolve the comparison once per run and emit run-aligned
//     selection spans — O(runs) per batch, not O(rows) — which the span
//     aggregation path can consume without ever materializing a row;
//   - dictionary columns pre-evaluate the string predicate against the
//     sorted dictionary once per segment plan, reducing it to an id
//     comparison or a 256-entry bitmap over the packed id vector;
//   - monotonic delta columns read their range endpoints per batch (two
//     checkpoint replays) to feed the zone-style keep-all/keep-none
//     pruning, decoding only boundary batches.
//
// Whatever cannot be pushed remains a residual predicate (predprog.go),
// ANDed afterwards. A conjunct segment metadata decides is not pushed at
// all: a true one drops out and a false one eliminates the segment
// (newSegPlan), so every pushed conjunct is live.

// pushOp is the normalized comparison of a pushed predicate: after
// constant translation only o <= t, o >= t, o == t, o != t remain, plus
// the two constant outcomes from clamping. It is also a verdict — what
// metadata proves of a predicate over some rows: pushAll, pushNone, or a
// live op when it proves neither.
type pushOp uint8

const (
	pushLE   = pushOp(sel.CmpLE)
	pushGE   = pushOp(sel.CmpGE)
	pushEQ   = pushOp(sel.CmpEQ)
	pushNE   = pushOp(sel.CmpNE)
	pushAll  = pushNE + 1 // metadata proves every row matches
	pushNone = pushNE + 2 // metadata proves no row matches
)

// cmp is the live comparison as the sel mask kernels spell it; the four
// non-constant ops share their values with sel.CmpOp.
func (op pushOp) cmp() sel.CmpOp { return sel.CmpOp(op) }

// constant reports whether the op is a metadata-proven outcome: a verdict
// that settles the predicate without evaluating it.
func (op pushOp) constant() bool { return op >= pushAll }

// predDomain classifies where a pushed predicate evaluates, for stats and
// Explain.
type predDomain uint8

const (
	domPacked predDomain = iota // bitpack, packed-domain SWAR kernels
	domUnpack                   // bitpack, unpack-then-compare
	domRLE                      // RLE, once-per-run span evaluation
	domDict                     // dictionary-code space
	domDelta                    // monotonic delta, endpoint pruning + decode compare
)

// pushedPred is one live filter conjunct evaluated in its column's encoded
// domain: segment metadata proved neither that every row passes nor that
// none does. Implementations are immutable plan state — all per-batch
// scratch comes from the caller's exec state — so one pushedPred serves
// concurrent scans.
type pushedPred interface {
	// batchOp clamps the conjunct for one batch against the encoding's
	// batch-granularity metadata (zone maps, run bounds, monotone
	// endpoints): the same clamp the planner ran against segment min/max,
	// replayed per batch. pushNone skips the batch without touching data;
	// pushAll drops this conjunct from the conjunction.
	batchOp(b colstore.Batch) pushOp
	// eval writes the conjunct's 0x00/0xFF row mask for a batch whose
	// batchOp was live. With first=true it overwrites vec, otherwise it
	// ANDs in. Asked to count, it returns the rows vec keeps afterwards —
	// counted as the mask is stored by a domain whose kernel can (the
	// packed compares), -1 from every other — and what it returns unasked
	// is unused. sc is this conjunct's exec-owned scratch.
	eval(b colstore.Batch, vec sel.ByteVec, first, count bool, sc *predScratch) int
	// initScratch sizes sc's buffers for this predicate, once per exec
	// state, so eval itself never allocates.
	initScratch(sc *predScratch)
	// domain classifies the evaluation domain for stats attribution.
	domain() predDomain
	// strategyLabel is the human-readable in-domain strategy for Explain:
	// packed, unpack, rle-run, dict-eq, dict-ne, dict-range, dict-bitmap,
	// delta-prune.
	strategyLabel() string
	// modelCost is the cost model's predicted cycles per evaluated row of
	// one eval() call, under the given profile.
	// Plan-time only; feeds SegmentPlan.FilterModelCyclesPerRow and the
	// ExplainAnalyze model-error report.
	modelCost(prof *costmodel.Profile) float64
}

// splitPushdown walks the top-level conjunction of p against this segment's
// metadata. A conjunct metadata proves true drops out; one it proves false
// refutes the whole filter, and nothing else is returned. Every other
// conjunct becomes a live pushedPred in its column's encoded domain or stays
// in the residual predicate (nil when nothing stays).
func splitPushdown(p expr.Pred, seg *colstore.Segment, opts *Options) (pushed []pushedPred, residual expr.Pred, refuted bool) {
	var pp pushedPred
	var verdict pushOp // live unless a leaf below decides
	switch t := p.(type) {
	case expr.And:
		lp, lr, lno := splitPushdown(t.L, seg, opts)
		if lno {
			return nil, nil, true
		}
		rp, rr, rno := splitPushdown(t.R, seg, opts)
		switch {
		case rno:
			return nil, nil, true
		case lr == nil:
			return append(lp, rp...), rr, false
		case rr == nil:
			return append(lp, rp...), lr, false
		default:
			return append(lp, rp...), expr.And{L: lr, R: rr}, false
		}
	case expr.Cmp:
		pp, verdict = pushCmp(t, seg, opts)
	case expr.StrIn:
		pp, verdict = pushStrIn(t, seg, opts)
	}
	switch {
	case verdict == pushNone:
		return nil, nil, true
	case verdict == pushAll:
		return nil, nil, false
	case pp != nil:
		return []pushedPred{pp}, nil, false
	default: // live, and no encoded domain takes it
		return nil, p, false
	}
}

// clampSegCmp reads a comparison against a segment's metadata. It matches
// the one shape metadata can decide and the encoded domains can evaluate —
// a bare integer column against a constant-foldable other side, in either
// order — and returns the column with the clamp of the comparison against
// its bounds.
func clampSegCmp(c expr.Cmp, seg *colstore.Segment) (encoding.IntColumn, pushOp, int64, bool) {
	name, ok := expr.IsCol(c.L)
	if !ok { // const OP col reads as col OP' const
		c = expr.Cmp{Op: c.Op.Mirror(), L: c.R, R: c.L}
		if name, ok = expr.IsCol(c.L); !ok {
			return nil, 0, 0, false
		}
	}
	rc, ok := expr.Fold(c.R).(expr.Const)
	if !ok {
		return nil, 0, 0, false
	}
	col, err := seg.IntCol(name)
	if err != nil {
		return nil, 0, 0, false
	}
	op, t, ok := clampCmp(c.Op, rc.V, col.Min(), col.Max())
	return col, op, t, ok
}

// maxPackedCmpBits is the widest bit-packed column a pushed comparison
// evaluates on packed words (paper §4); a wider one unpacks and compares.
// The packedcmp/unpack/cmpmask probes price the two paths, and every fit
// has the packed compare ahead at 1–32 bits and behind at 40 bits and up.
const maxPackedCmpBits = 32

// pushCmp reads col OP const against the column's min/max metadata: the
// verdict is its clamp (live for a comparison of any other shape). A live
// comparison translates into the column's encoded domain — which domain
// depends on the encoding the segment chose for the column — and pp is nil
// only when no domain takes it.
func pushCmp(c expr.Cmp, seg *colstore.Segment, opts *Options) (pp pushedPred, verdict pushOp) {
	col, op, t, ok := clampSegCmp(c, seg)
	if !ok || op.constant() {
		return nil, op // clampSegCmp's op is zero, so live, when !ok
	}
	switch tc := col.(type) {
	case *encoding.BitPackColumn:
		// A live threshold lies inside [Ref, Max], so its frame-of-reference
		// offset is the non-negative difference.
		pp = &bitpackPred{bp: tc, op: op, threshold: uint64(t - tc.Ref()),
			packed: !opts.DisablePackedFilter && tc.Width() <= maxPackedCmpBits}
	case *encoding.RLEColumn:
		if !opts.DisableRLEDomain {
			pp = &rlePred{col: tc, op: op, threshold: t}
		}
	case *encoding.DeltaColumn:
		// Only monotonic delta columns push: they are the ones whose batch
		// bounds come from two endpoint lookups. Non-monotonic columns gain
		// nothing over the residual's decode-then-compare.
		if asc, desc := tc.Monotonic(); (asc || desc) && !opts.DisableDeltaDomain {
			pp = &deltaPred{col: tc, op: op, threshold: t}
		}
	}
	return pp, op
}

// clampCmp decides col OP v against the column's [mn, mx] metadata in value
// space: strict comparisons shift onto inclusive ones (with the int64 edge
// guards) and the clamp does the rest, so thresholds outside the range — or
// any threshold against a single-valued range — collapse to the constant
// outcomes. The returned threshold is the inclusive one: a live op keeps it
// in value space (bit-packed columns subtract Ref, their mn, to reach
// offset space).
func clampCmp(op expr.CmpOp, v, mn, mx int64) (pushOp, int64, bool) {
	var p pushOp
	switch op {
	case expr.OpLE:
		p = pushLE
	case expr.OpLT:
		if v == math.MinInt64 {
			return pushNone, 0, true
		}
		p, v = pushLE, v-1
	case expr.OpGE:
		p = pushGE
	case expr.OpGT:
		if v == math.MaxInt64 {
			return pushNone, 0, true
		}
		p, v = pushGE, v+1
	case expr.OpEQ:
		p = pushEQ
	case expr.OpNE:
		p = pushNE
	default:
		return 0, 0, false
	}
	return clamp(p, v, mn, mx), v, true
}

// clamp is the engine's one "comparison against bounds" decision: given the
// bounds [mn, mx] of the rows in question — a segment's column at plan
// time, a batch's zone at scan time — a comparison collapses to
// pushAll/pushNone when the bounds prove it, and passes through otherwise.
// Instantiated at uint64 for offset-space (bitpack zone maps) and int64 for
// value-space bounds.
func clamp[T int64 | uint64](op pushOp, t, mn, mx T) pushOp {
	switch op {
	case pushLE:
		if mx <= t {
			return pushAll
		}
		if mn > t {
			return pushNone
		}
	case pushGE:
		if mn >= t {
			return pushAll
		}
		if mx < t {
			return pushNone
		}
	case pushEQ:
		if t < mn || t > mx {
			return pushNone
		}
		if mn == mx { // single-valued range equal to t
			return pushAll
		}
	case pushNE:
		if t < mn || t > mx {
			return pushAll
		}
		if mn == mx {
			return pushNone
		}
	}
	return op
}

// ---------------------------------------------------------------------------
// Bit-packed columns: frame-of-reference offset-space comparison, packed
// SWAR kernels or unpack-then-compare.

// bitpackPred is one comparison evaluated on encoded offsets.
type bitpackPred struct {
	bp        *encoding.BitPackColumn
	op        pushOp
	threshold uint64 // in offset space
	packed    bool   // evaluate with the packed-domain compare kernels
}

func (pp *bitpackPred) batchOp(b colstore.Batch) pushOp {
	mn, mx := pp.bp.ZoneBounds(b.Start, b.N)
	return clamp(pp.op, pp.threshold, mn, mx)
}

//bipie:kernel
//bipie:nobce
func (pp *bitpackPred) eval(b colstore.Batch, vec sel.ByteVec, first, count bool, sc *predScratch) int {
	if pp.packed {
		return pp.bp.Packed().CmpPacked(vec, b.Start, pp.op.cmp(), pp.threshold, !first, count)
	}
	sc.unpacked = pp.bp.Packed().UnpackSmallest(sc.unpacked, b.Start, b.N)
	sel.CmpMaskLanes(vec, sc.unpacked, pp.threshold, pp.op.cmp(), first)
	return -1
}

func (pp *bitpackPred) initScratch(sc *predScratch) {
	// The unpack buffer grows lazily inside UnpackSmallest on first use and
	// is then recycled with the exec state; the packed path never needs it.
}

func (pp *bitpackPred) domain() predDomain {
	if pp.packed {
		return domPacked
	}
	return domUnpack
}

func (pp *bitpackPred) strategyLabel() string {
	if pp.packed {
		return "packed"
	}
	return "unpack"
}

func (pp *bitpackPred) modelCost(prof *costmodel.Profile) float64 {
	// All four live ops run one compare core (GE and NE reuse the LE/EQ
	// cores with a negated mask), so one figure per path covers them.
	w := pp.bp.Width()
	if pp.packed {
		return prof.PackedCmpCyclesPerRow(w)
	}
	return prof.UnpackCmpCyclesPerRow(w)
}

// fusedFilter is the filter stage of the plan shape TPC-H Q1 and the
// serving mix's Q1 run: one live conjunct, a packed <= on a bit-packed
// column, two group-by columns whose ids are packed vectors, a reserved
// special group, and the widths bitpack.CmpLEGroups runs. One pass per
// whole batch writes the row mask, the group ids with the special one
// blended in, and the kept count, so the filter stage counts no mask and
// the aggregate stage maps no group (execState.mapped). Every other shape
// runs the three passes it replaces, and so does a batch of this one that a
// zone map keeps whole, that has deleted rows, or that ends its segment
// short of a whole batch.
type fusedFilter struct {
	pred    *bitpackPred
	hi, lo  *bitpack.Vector // the group-by columns' ids: the group is hi·2 + lo
	special uint8
}

// The fused pass runs over whole batches only.
const _ = uint(colstore.BatchRows-bitpack.GroupsRows) + uint(bitpack.GroupsRows-colstore.BatchRows)

// newFusedFilter returns the fused pass of a plan that has the shape, or
// nil.
func newFusedFilter(sp *segPlan) *fusedFilter {
	if sp.special < 0 || sp.residual != nil || sp.spanAgg || sp.forceSel != nil || len(sp.pushed) != 1 || len(sp.mapper.cols) != 2 {
		return nil
	}
	live, ok := sp.pushed[0].(*bitpackPred)
	hi, lo, card := sp.mapper.packedIDs(0), sp.mapper.packedIDs(1), sp.mapper.cols[1].card
	if !ok || !live.packed || live.op != pushLE || hi == nil || lo == nil || !bitpack.GroupsKernel(live.bp.Width(), hi.Bits(), lo.Bits(), uint8(card)) {
		return nil
	}
	return &fusedFilter{pred: live, hi: hi, lo: lo, special: uint8(sp.special)}
}

// eval runs the fused pass over one whole batch: mask and groups are the
// batch's row mask and group-id buffer; it returns the kept rows.
//
//bipie:kernel
func (f *fusedFilter) eval(b colstore.Batch, mask sel.ByteVec, groups []uint8) int {
	return f.pred.bp.Packed().CmpLEGroups((*[bitpack.GroupsRows]byte)(mask), (*[bitpack.GroupsRows]byte)(groups),
		b.Start, f.pred.threshold, f.hi, f.lo, f.special)
}

// modelCost prices the pass as the three it fuses: the packed compare and
// an unpack of each id column.
func (f *fusedFilter) modelCost(prof *costmodel.Profile) float64 {
	return f.pred.modelCost(prof) + prof.UnpackCyclesPerRow(f.hi.Bits()) + prof.UnpackCyclesPerRow(f.lo.Bits())
}

// ---------------------------------------------------------------------------
// RLE columns: once-per-run evaluation into run-aligned spans.

// rlePred is one comparison evaluated at run granularity, in value space.
type rlePred struct {
	col       *encoding.RLEColumn
	op        pushOp
	threshold int64
}

// runCmpOf maps a live pushOp onto the encoding package's
// run-domain comparison selector.
func runCmpOf(op pushOp) encoding.RunCmp {
	switch op {
	case pushLE:
		return encoding.RunLE
	case pushGE:
		return encoding.RunGE
	case pushEQ:
		return encoding.RunEQ
	default: // pushNE
		return encoding.RunNE
	}
}

func (pp *rlePred) batchOp(b colstore.Batch) pushOp {
	mn, mx := pp.col.ZoneBounds(b.Start, b.N)
	return clamp(pp.op, pp.threshold, mn, mx)
}

//bipie:kernel
//bipie:nobce
func (pp *rlePred) eval(b colstore.Batch, vec sel.ByteVec, first, count bool, sc *predScratch) int {
	sel.ApplySpans(vec, sc.spans[:pp.evalSpans(b, sc.spans)], first)
	return -1
}

// evalSpans writes the qualifying rows of a batch as sorted, disjoint,
// maximal batch-relative spans into dst and returns the span count: the
// span path's form of eval (exec.filterBatch). dst has room for b.N/2+1
// spans.
func (pp *rlePred) evalSpans(b colstore.Batch, dst []sel.Span) int {
	return pp.col.CmpSpans(dst, runCmpOf(pp.op), pp.threshold, b.Start, b.N)
}

func (pp *rlePred) initScratch(sc *predScratch) {
	sc.spans = make([]sel.Span, colstore.BatchRows/2+1)
}

func (pp *rlePred) domain() predDomain { return domRLE }

func (pp *rlePred) strategyLabel() string { return "rle-run" }

func (pp *rlePred) modelCost(prof *costmodel.Profile) float64 {
	// Run-domain work amortizes over the column's average run length; the
	// mask expansion (skipped on the span-aggregation path, where spans are
	// consumed directly) pays per row.
	avgRun := float64(1)
	if runs := pp.col.Runs(); runs > 0 {
		avgRun = float64(pp.col.Len()) / float64(runs)
	}
	sel := estUniformSel(pp.op, pp.threshold, pp.col.Min(), pp.col.Max())
	// One CmpSpans call per batch carries a fixed cost (call setup, first-run
	// lookup) that dominates once the per-row terms shrink to fractions of a
	// cycle, so amortize it over the batch size explicitly.
	return prof.RLECmpSpansFixedCycles()/float64(colstore.BatchRows) +
		prof.RLECmpSpansCyclesPerRun()/avgRun + sel*prof.ApplySpansCyclesPerSelRow()
}

// estUniformSel estimates a pushed comparison's qualifying row fraction
// from the column's value bounds under a uniform-distribution assumption —
// enough to scale selectivity-proportional kernel costs at plan time.
func estUniformSel(op pushOp, t, mn, mx int64) float64 {
	rng := float64(mx) - float64(mn) + 1
	if rng <= 1 {
		return 1
	}
	var s float64
	switch op {
	case pushLE:
		s = (float64(t) - float64(mn) + 1) / rng
	case pushGE:
		s = (float64(mx) - float64(t) + 1) / rng
	case pushEQ:
		s = 1 / rng
	default: // pushNE
		s = 1 - 1/rng
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// ---------------------------------------------------------------------------
// Dictionary columns: plan-time pre-evaluation against the dictionary,
// then filtering in dict-code space on the packed id vector.

// dictMode is the code-space evaluation strategy chosen at plan time from
// the shape of the qualifying id set.
type dictMode uint8

const (
	dictEQ     dictMode = iota // exactly one qualifying code
	dictNE                     // all codes but one
	dictGE                     // codes >= lo
	dictLE                     // codes <= hi
	dictRange                  // lo <= code <= hi
	dictBitmap                 // arbitrary code set, 256-entry mask table
)

// dictPred is a string predicate reduced to dict-code space. Because the
// dictionary is sorted and ids are dense, a qualifying value set becomes a
// qualifying id set at plan time; its shape picks the cheapest kernel —
// single packed compare, packed range, or bitmap lookup over uint8 ids.
type dictPred struct {
	ids    *bitpack.Vector
	mode   dictMode
	lo, hi uint64
	mask   [256]byte // dictBitmap: 0xFF for qualifying codes
}

// strMembers pre-evaluates a StrIn predicate against a dictionary: every
// value resolves to its id (absent values match nothing) and negation
// complements within the dictionary. It returns the 0x00/0xFF membership
// mask over the dictionary's codes and how many of them qualify.
func strMembers(s expr.StrIn, col *encoding.DictColumn) (member []byte, selected int) {
	member = make([]byte, col.Cardinality())
	for _, v := range s.Values {
		if id, ok := col.IDOf(v); ok {
			member[id] = sel.Selected
		}
	}
	for i := range member {
		if s.Negate {
			member[i] = ^member[i]
		}
		if member[i] != 0 {
			selected++
		}
	}
	return member, selected
}

// pushStrIn reduces a StrIn predicate to this segment's dict-code space:
// the verdict is pushNone or pushAll when no code or every code qualifies;
// otherwise the live id set collapses to a point/range comparison or
// becomes a bitmap.
func pushStrIn(s expr.StrIn, seg *colstore.Segment, opts *Options) (pp pushedPred, verdict pushOp) {
	col, err := seg.StrCol(s.Col)
	if err != nil {
		return nil, 0
	}
	member, selected := strMembers(s, col)
	card := len(member)
	switch {
	case selected == 0:
		return nil, pushNone
	case selected == card:
		return nil, pushAll
	case opts.DisableDictDomain || card > 256:
		// dictPred's bitmap indexes a 256-entry table with uint8 ids; a
		// wider dictionary — any, with the domain off — is a residual
		// leaf, its ids at their own word.
		return nil, 0
	}
	dp := &dictPred{ids: col.IDs()}
	lo, hi := 0, card-1
	for member[lo] == 0 {
		lo++
	}
	for member[hi] == 0 {
		hi--
	}
	dp.lo, dp.hi = uint64(lo), uint64(hi)
	switch {
	case lo == hi:
		dp.mode = dictEQ
	case hi-lo+1 == selected: // contiguous id range
		switch {
		case lo == 0:
			dp.mode = dictLE
		case hi == card-1:
			dp.mode = dictGE
		default:
			dp.mode = dictRange
		}
	case selected == card-1: // exactly one code missing
		gap := lo
		for member[gap] != 0 {
			gap++
		}
		dp.mode, dp.lo = dictNE, uint64(gap)
	default:
		dp.mode = dictBitmap
		copy(dp.mask[:], member)
	}
	return dp, pushEQ // any live op: eval dispatches on mode
}

// batchOp is always live: the id vector carries no batch-level zone
// metadata (dictionary codes are unordered with respect to row order, so
// zones would rarely prune anyway).
func (pp *dictPred) batchOp(b colstore.Batch) pushOp { return pushEQ }

//bipie:kernel
//bipie:nobce
func (pp *dictPred) eval(b colstore.Batch, vec sel.ByteVec, first, count bool, sc *predScratch) int {
	and := !first
	switch pp.mode {
	case dictEQ:
		return pp.ids.CmpPacked(vec, b.Start, sel.CmpEQ, pp.lo, and, count)
	case dictNE:
		return pp.ids.CmpPacked(vec, b.Start, sel.CmpNE, pp.lo, and, count)
	case dictGE:
		return pp.ids.CmpPacked(vec, b.Start, sel.CmpGE, pp.lo, and, count)
	case dictLE:
		return pp.ids.CmpPacked(vec, b.Start, sel.CmpLE, pp.hi, and, count)
	case dictRange:
		pp.ids.CmpPacked(vec, b.Start, sel.CmpGE, pp.lo, and, false)
		return pp.ids.CmpPacked(vec, b.Start, sel.CmpLE, pp.hi, true, count)
	}
	// dictBitmap
	ids := sc.ids[:b.N]
	pp.ids.UnpackUint8(ids, b.Start)
	// Reslicing vec to the id count pins both loop bounds, so the per-row
	// lookups carry no bounds check (mask is [256]byte and ids are uint8, so
	// the table index needs none either).
	out := vec[:len(ids)]
	if first {
		for i, id := range ids {
			out[i] = pp.mask[id]
		}
	} else {
		for i, id := range ids {
			out[i] &= pp.mask[id]
		}
	}
	return -1
}

func (pp *dictPred) initScratch(sc *predScratch) {
	if pp.mode == dictBitmap {
		sc.ids = make([]uint8, colstore.BatchRows)
	}
}

func (pp *dictPred) domain() predDomain { return domDict }

func (pp *dictPred) strategyLabel() string {
	switch pp.mode {
	case dictEQ:
		return "dict-eq"
	case dictNE:
		return "dict-ne"
	case dictGE, dictLE, dictRange:
		return "dict-range"
	default:
		return "dict-bitmap"
	}
}

func (pp *dictPred) modelCost(prof *costmodel.Profile) float64 {
	w := pp.ids.Bits()
	switch pp.mode {
	case dictRange:
		return 2 * prof.PackedCmpCyclesPerRow(w)
	case dictBitmap:
		return prof.DictBitmapCyclesPerRow()
	default:
		return prof.PackedCmpCyclesPerRow(w)
	}
}

// ---------------------------------------------------------------------------
// Monotonic delta columns: endpoint range pruning, decode-and-compare only
// for boundary batches.

// deltaPred is one comparison on a monotonic delta column, in value space.
// Its value is almost entirely in batchOp: a sorted column crossing the
// threshold once means every batch but one resolves to pushAll or pushNone
// from two endpoint lookups.
type deltaPred struct {
	col       *encoding.DeltaColumn
	op        pushOp
	threshold int64
}

func (pp *deltaPred) batchOp(b colstore.Batch) pushOp {
	mn, mx, ok := pp.col.RangeBounds(b.Start, b.N)
	if !ok {
		return pp.op
	}
	return clamp(pp.op, pp.threshold, mn, mx)
}

//bipie:kernel
//bipie:nobce
func (pp *deltaPred) eval(b colstore.Batch, vec sel.ByteVec, first, count bool, sc *predScratch) int {
	vals := sc.i64[:b.N]
	pp.col.DecodeWith(vals, b.Start, sc.diffs)
	sel.CmpMaskWords(vec, vals, pp.threshold, pp.op.cmp(), first)
	return -1
}

func (pp *deltaPred) initScratch(sc *predScratch) {
	sc.i64 = make([]int64, colstore.BatchRows)
	sc.diffs = make([]uint64, colstore.BatchRows)
}

func (pp *deltaPred) domain() predDomain { return domDelta }

func (pp *deltaPred) strategyLabel() string { return "delta-prune" }

func (pp *deltaPred) modelCost(prof *costmodel.Profile) float64 {
	// Boundary batches decode then compare as int64 words; interior batches
	// resolve from endpoints, which batchOp accounts for by never calling
	// eval there.
	return prof.DeltaDecodeCyclesPerRow() + prof.CmpMaskCyclesPerRow(8)
}
