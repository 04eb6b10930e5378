package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// The query lifecycle splits into three layers (the plan/exec line every
// vectorized engine draws, and the paper's own separation of metadata-time
// from scan-time decisions, §3):
//
//   - Prepared / segPlan: the immutable plan. Everything derivable from
//     (query × segment metadata) alone — resolved columns, group mappers,
//     pushdown splits, overflow proofs, the sum-expression program with its
//     proven word sizes, the per-segment aggregation strategy — computed
//     once and shared by any number of concurrent executions.
//   - execState (exec.go): the mutable per-scan state — selection vectors,
//     value vectors, mask vectors, accumulators — pooled per plan so
//     steady-state execution allocates nothing.
//   - execute (engine.go): the thin driver that splits segments into work
//     units, borrows exec states, threads context cancellation between
//     batch ranges, and merges partials.

// sumInput is one distinct SUM/MIN/MAX input resolved against a segment: a
// slot of accumulators fed by one node of the plan's sum-expression
// program. The input's value is the affine term ±node + Add; the kernels
// aggregate the node's vector as it stands — frame-of-reference offsets
// for a bit-packed column, the narrowest proven word for an expression —
// and finalize folds sign and constant back per group.
type sumInput struct {
	kind     AggKind             // Sum (also for Avg numerators), Min, or Max
	term     expr.SumTerm        // Node < 0: a literal input, no vector at all
	packed   *bitpack.Vector     // node is a packed leaf: the sort path sums it still packed
	rle      *encoding.RLEColumn // input is a bare RLE column: the span path may sum it per run
	wordSize int                 // lane of the node's vector; 0 for a literal
	// walked marks a product the multi-aggregate walk computes per row
	// (agg.Product): its node is never evaluated and has no vector.
	walked bool
}

// segPlan is the immutable execution plan of one query over one segment:
// the output of every metadata-time decision `newSegScanner` used to make
// per scan unit, now made once and shared. A segPlan owns a pool of exec
// states so concurrent executions of the same plan recycle their mutable
// buffers instead of reallocating them.
//
// The immutability is load-bearing — concurrent Run calls share segPlans
// with no synchronization — and machine-checked: immutplan (bipievet)
// rejects any field write outside newSegPlan.
//
//bipie:immutable
type segPlan struct {
	seg  *colstore.Segment
	q    *Query
	opts *Options

	// eliminated means segment metadata proves no row can pass the filter;
	// every other field below is zero and the plan never executes.
	eliminated bool

	mapper     *groupMapper
	realGroups int // group domain from metadata
	domain     int // group ids the kernels see: realGroups, plus the special group when reserved
	special    int // special group id, or -1: no live filter, no free id, or a Reduce plan (no ids at all)

	sums        []sumInput
	sumIdx      []int  // slots with kind Sum, fed to the sum strategy kernels
	extIdx      []int  // slots with kind Min/Max, always scalar
	materialize []bool // whether a slot needs per-row value vectors
	aggSlot     []int  // aggregate index → sum slot, -1 for COUNT

	// boundProg is the sum-expression program every slot's term points
	// into; its evalOrder is what the value-vector paths evaluate per batch
	// — under the sort strategy only what the expression slots reach, since
	// packed leaves are gathered straight from their packed form.
	boundProg

	strategy    agg.Strategy
	modelCost   float64          // agg.EstimateCost of the chosen strategy, for actual-vs-assumed reporting
	multiLayout *agg.MultiLayout // slot layout when strategy is multi-aggregate
	// multiInputs lists the program node behind each vector Accumulate
	// reads: one per sumIdx slot (-1 for a walked product), then the
	// products' operands no slot supplies.
	multiInputs []int

	// The filter as metadata leaves it: only live conjuncts, each pushed
	// into its column's encoded domain or part of the residual.
	pushed   []pushedPred // conjuncts evaluated in their column's encoded domain
	residual *predProg    // what did not push, nil if nothing live remains
	// fused, when the plan has its shape, runs the one live conjunct and the
	// group map as one pass (fusedFilter); nil otherwise.
	fused *fusedFilter

	// spanAgg marks the fully encoded fast path: no live filter, or every
	// conjunct pushed as run-aligned spans; every aggregate a bare RLE
	// column's SUM, or COUNT; one real group — so a batch's filter AND sums
	// both complete in the run domain without materializing a single row.
	// Every sum slot is summed per span.
	spanAgg   bool
	spanPreds []*rlePred // parallel to pushed

	// gathered, on a Reduce plan whose every SUM slot is a packed leaf or a
	// product of two, is how a gathered batch sums each sumIdx slot straight
	// off the packed words (gatheredSum); nil for every other plan.
	gathered []gatheredSum

	maxBits uint8 // widest column word the value paths read, drives the selection crossover

	// selCrossover is the gather/compact selectivity crossover at maxBits
	// (sel.Crossover), resolved once at plan time so the per-batch
	// selection choice is a comparison.
	// A sort-based plan never compacts (paper §5.2): its crossover is +Inf.
	selCrossover float64
	// forceSel is Options.ForceSelection as this plan can run it: a forced
	// special group degrades to compaction when none is reserved, and a
	// Reduce plan runs either as its masked reduction (chooseSelection).
	// Nil lets the batch's selectivity choose.
	forceSel *sel.Method
	// filterModel is the model's predicted encoded-filter cost in cycles
	// per evaluated row, summed over the pushed conjuncts (each batch that
	// is not zone-collapsed evaluates each of them once).
	filterModel float64
	// decodeModel is the model's predicted decode cost in cycles per row of
	// a batch whose values load in full — Σ unpack(width) over the leaves
	// plus Σ operator nodes, of the sum inputs' program and the residual
	// predicate's alike — and decodePasses how many timed decode passes
	// (residual values, sum inputs) such a batch makes.
	decodeModel  float64
	decodePasses int

	// pool recycles execState values across executions of this plan. Exec
	// states are returned reset, so a Get either reuses a clean one or
	// builds a fresh one via New.
	pool sync.Pool
}

// Prepared is a query compiled against a table: one immutable segPlan per
// segment, built lazily as segments appear and cached by segment identity.
// A Prepared is safe for concurrent use — any number of goroutines may call
// Run simultaneously; each execution borrows pooled exec state and shares
// the plans read-only. The Query and Options must not be mutated after
// Prepare.
//
// Table writes remain visible. Run re-lists the table's segments every
// call, plans unseen segments (including fresh mutable-region snapshots) on
// demand, and prunes plans for segments that no longer exist; deletes are
// read per batch at scan time, and no plan depends on them.
//
// Everything here except the mu-guarded plan cache is frozen at Prepare
// time; immutplan (bipievet) enforces that, with the cache's two writers
// carrying reviewed //bipie:allow suppressions naming the guard.
//
//bipie:immutable
type Prepared struct {
	t    *table.Table
	q    *Query
	opts Options
	// wideLanes evaluates every sum-expression operator in the int64 lane
	// regardless of its proven range. No option sets it: it exists so
	// tests can hold the narrow lanes result-identical to plain int64.
	wideLanes bool

	mu    sync.RWMutex
	plans map[*colstore.Segment]*segPlan
}

// Prepare validates the query against the table and compiles a plan for
// every current segment, failing fast on planning errors (unknown columns,
// group domains beyond the byte id space, unprovable overflow). The
// returned Prepared may be executed concurrently and reused across table
// writes.
func Prepare(t *table.Table, q *Query, opts Options) (*Prepared, error) {
	return prepare(t, q, opts, false)
}

func prepare(t *table.Table, q *Query, opts Options, wideLanes bool) (*Prepared, error) {
	if err := q.validate(t); err != nil {
		return nil, err
	}
	if opts.CostProfile != nil {
		if err := opts.CostProfile.Check(); err != nil {
			return nil, fmt.Errorf("engine: CostProfile: %w", err)
		}
	}
	if q.Filter != nil {
		// Every NOT moves onto its leaves once, here, so the planner only
		// ever meets positive conjunctions: NOT v <= 5 pushes as v > 5.
		pushed := *q
		pushed.Filter = expr.PushNot(q.Filter)
		q = &pushed
	}
	p := &Prepared{t: t, q: q, opts: opts, wideLanes: wideLanes, plans: make(map[*colstore.Segment]*segPlan)}
	segments, _ := p.segments()
	for _, seg := range segments {
		if _, err := p.planFor(seg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// segments lists the table's scannable segments in scan order — sealed
// segments plus the encoded mutable-region snapshot — and how many of them
// are sealed.
func (p *Prepared) segments() ([]*colstore.Segment, int) {
	segments := p.t.Segments()
	nSealed := len(segments)
	if ms := p.t.MutableSegment(); ms != nil {
		segments = append(append([]*colstore.Segment(nil), segments...), ms)
	}
	return segments, nSealed
}

// planFor returns the cached plan for a segment, building and publishing it
// on first sight. Plans are keyed by segment identity: sealed segments are
// immutable but for their delete marks, which no plan reads, and the
// mutable region produces a fresh snapshot segment after every write, so a
// cached plan can never go stale.
func (p *Prepared) planFor(seg *colstore.Segment) (*segPlan, error) {
	p.mu.RLock()
	sp := p.plans[seg]
	p.mu.RUnlock()
	if sp != nil {
		return sp, nil
	}
	sp, err := newSegPlan(seg, p.q, &p.opts, p.wideLanes)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if existing := p.plans[seg]; existing != nil {
		sp = existing // another goroutine won the build race; use its plan
	} else {
		p.plans[seg] = sp //bipie:allow immutplan — plan cache, guarded by p.mu
	}
	p.mu.Unlock()
	return sp, nil
}

// prune drops cached plans whose segments are no longer part of the table
// (superseded mutable-region snapshots, mainly), bounding the cache to the
// live segment set.
func (p *Prepared) prune(live []*colstore.Segment) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.plans) <= len(live) {
		return
	}
	keep := make(map[*colstore.Segment]bool, len(live))
	for _, seg := range live {
		keep[seg] = true
	}
	for seg := range p.plans {
		if !keep[seg] {
			delete(p.plans, seg) //bipie:allow immutplan — plan cache, guarded by p.mu
		}
	}
}

// getExec borrows an exec state for one scan unit. The pool's New closure
// builds a fresh state bound to this plan; recycled states were reset on
// release.
func (sp *segPlan) getExec() *execState {
	return sp.pool.Get().(*execState)
}

// newSegPlan makes every metadata-time decision for one (query, segment)
// pair: filter pushdown and segment elimination, group mapping, aggregate
// resolution, overflow proofs, special-group reservation and strategy
// choice. It allocates no scan buffers — that is newExecState's job.
func newSegPlan(seg *colstore.Segment, q *Query, opts *Options, wideLanes bool) (*segPlan, error) {
	sp := &segPlan{seg: seg, q: q, opts: opts}
	sp.pool.New = func() any { return newExecState(sp) }

	// The filter first: segment metadata's one verdict on it (paper §2.1,
	// "segment elimination during query processing"). splitPushdown settles
	// every conjunct metadata decides, compileResidual folds what did not
	// push; either refuting the filter eliminates the segment, and what
	// survives both is live.
	var err error
	if q.Filter != nil {
		var rest expr.Pred
		var refuted bool
		if sp.pushed, rest, refuted = splitPushdown(q.Filter, seg, opts); rest != nil && !refuted {
			var verdict pushOp
			if sp.residual, verdict, err = compileResidual(rest, seg, wideLanes); err != nil {
				return nil, err
			}
			refuted = verdict == pushNone
		}
		if refuted {
			sp.pushed, sp.eliminated = nil, true
			return sp, nil
		}
	}

	if sp.mapper, err = newGroupMapper(seg, q.GroupBy); err != nil {
		return nil, err
	}
	sp.realGroups = sp.mapper.groups()

	// Resolve aggregates into the segment's sum-expression program:
	// structurally equal inputs share one slot (AVG reuses SUM's), equal
	// sub-expressions one node, and every node gets the narrowest word the
	// columns' min/max metadata proves.
	builder := newSegBuilder(seg, wideLanes)
	sp.aggSlot = make([]int, len(q.Aggregates))
	type slotKey struct {
		kind AggKind
		term expr.SumTerm
	}
	slots := map[slotKey]int{}
	for i, a := range q.Aggregates {
		if a.Kind == Count {
			sp.aggSlot[i] = -1
			continue
		}
		key := slotKey{kind: Sum}
		compile := builder.Term
		if a.Kind == Min || a.Kind == Max {
			key.kind, compile = a.Kind, builder.OrderedTerm
		}
		if key.term, err = compile(a.Arg); err != nil {
			return nil, err
		}
		if name, ok := expr.IsCol(a.Arg); ok && key.kind == Sum {
			// A plain column's sum carries the §2.1 overflow proof;
			// expressions are outside it and wrap as Go does.
			if bp, ok := builder.cols[name].col.(*encoding.BitPackColumn); ok {
				if err := proveNoOverflow(bp, seg.Rows(), name); err != nil {
					return nil, err
				}
			}
		}
		slot, ok := slots[key]
		if !ok {
			slot = len(sp.sums)
			slots[key] = slot
			sp.sums = append(sp.sums, sumInput{kind: key.kind, term: key.term})
		}
		sp.aggSlot[i] = slot
	}
	sp.boundProg = builder.bind()
	for i := range sp.sums {
		si := &sp.sums[i]
		if si.term.IsConst() {
			continue
		}
		leaf := sp.progLeaves[si.term.Node]
		si.wordSize = sp.prog.Node(si.term.Node).Word
		si.packed = leaf.packed
		if rle, ok := leaf.col.(*encoding.RLEColumn); ok && si.kind == Sum && si.term == (expr.SumTerm{Node: si.term.Node}) {
			si.rle = rle
		}
	}

	// The span-aggregation path applies when the whole batch pipeline can
	// stay in the run domain: no live filter, or a fully pushed one whose
	// conjuncts all emit run-aligned spans; a single real group; and only
	// RLE-backed SUM slots. Forced methods and residuals fall back to the
	// row-mask pipeline; deleted rows are a batch's live spans (filterBatch).
	spanOK := sp.residual == nil && !opts.DisableRLEDomain && sp.realGroups == 1 && len(sp.sums) > 0 &&
		opts.ForceSelection == nil && opts.ForceAggregation == nil
	for i := range sp.sums {
		spanOK = spanOK && sp.sums[i].kind == Sum && sp.sums[i].rle != nil
	}
	spanPreds := make([]*rlePred, len(sp.pushed))
	for i, pp := range sp.pushed {
		spanPreds[i], _ = pp.(*rlePred)
		spanOK = spanOK && spanPreds[i] != nil
	}
	if spanOK {
		sp.spanAgg, sp.spanPreds = true, spanPreds
	}

	// Choose the aggregation strategy for the whole segment from metadata
	// (paper §3: per segment, from max groups and aggregate shape). Only
	// SUM inputs participate — MIN/MAX always run the scalar extremum
	// kernel on the side, and a span plan's sums bypass strategies
	// entirely: each is summed per run on the encoded representation, never
	// decoding a row.
	for i, si := range sp.sums {
		switch {
		case si.term.IsConst():
			// A literal input has no vector: finalize computes it from the
			// group counts.
		case si.kind != Sum:
			sp.extIdx = append(sp.extIdx, i)
		case sp.spanAgg:
			// spanAgg guarantees every slot is an RLE-backed Sum; the span
			// path sums each per qualifying run via SumSpans.
		default:
			sp.sumIdx = append(sp.sumIdx, i)
		}
	}
	wordSizes := make([]int, 0, len(sp.sumIdx))
	maxWS := 1
	for _, i := range sp.sumIdx {
		ws := sp.sums[i].wordSize
		wordSizes = append(wordSizes, ws)
		if ws > maxWS {
			maxWS = ws
		}
	}
	// Which program nodes a batch evaluates: everything the SUM and MIN/MAX
	// slots reach, less the products a multi-aggregate walk computes.
	live := make([]bool, sp.prog.Len())
	sortLive := make([]bool, sp.prog.Len())
	for _, idx := range [2][]int{sp.sumIdx, sp.extIdx} {
		for _, i := range idx {
			live[sp.sums[i].term.Node] = true
			sortLive[sp.sums[i].term.Node] = sp.sums[i].packed == nil
		}
	}
	sp.evalOrder = reach(sp.prog, live)

	// A plan with one real group and no extremum has no group ids at all
	// (agg.StrategyReduce), so it fuses no special group either. Every other
	// plan — grouped, with a MIN/MAX slot (the extremum kernels index by
	// group id), or forced onto another strategy — reserves one when a live
	// filter remains and the byte id space has a free slot: a filter
	// metadata proves true plans like no filter at all.
	force := opts.ForceAggregation
	reduce := sp.realGroups == 1 && len(sp.extIdx) == 0 && (force == nil || *force == agg.StrategyReduce)
	sp.special, sp.domain = -1, sp.realGroups
	if !reduce && (len(sp.pushed) > 0 || sp.residual != nil) && sp.realGroups+1 <= sel.MaxGroups {
		sp.special, sp.domain = sp.realGroups, sp.realGroups+1
	}
	if f := opts.ForceSelection; f != nil {
		m := *f
		if m == sel.MethodSpecialGroup && sp.special < 0 {
			m = sel.MethodCompact
		}
		sp.forceSel = &m
	}

	params := agg.Params{
		Groups:      sp.domain,
		Sums:        len(sp.sumIdx),
		MaxWordSize: maxWS,
		WordSizes:   wordSizes,
	}
	if force != nil {
		sp.strategy = *force
	} else {
		sp.strategy = agg.Choose(params)
	}
	// Validate the forced or chosen strategy against hard constraints,
	// degrading to scalar rather than failing. Layout validation happens
	// here, at plan time, so every pooled exec state of this plan is built
	// against a known-good layout.
	switch sp.strategy {
	case agg.StrategyInRegister:
		if !agg.InRegisterSupported(sp.domain, maxWS) {
			sp.strategy = agg.StrategyScalar
		}
	case agg.StrategyMultiAggregate:
		if len(sp.sumIdx) == 0 {
			sp.strategy = agg.StrategyScalar
		} else if sp.multiLayout, sp.multiInputs, err = sp.multiPlan(wordSizes); err != nil {
			sp.strategy, sp.multiLayout, sp.multiInputs = agg.StrategyScalar, nil, nil
		}
		for k, n := range sp.multiInputs {
			if n < 0 {
				// Nothing else reads a walked product, so the order without
				// it still holds everything the batch's vectors need.
				si := &sp.sums[sp.sumIdx[k]]
				si.walked = true
				sp.evalOrder = slices.DeleteFunc(sp.evalOrder, func(n int) bool { return n == si.term.Node })
			}
		}
	case agg.StrategySortBased:
		// The sort path consumes packed columns through sorted indices and
		// never materializes per-row value vectors, which the extremum
		// kernels need; queries mixing SUM with MIN/MAX run scalar.
		if len(sp.sumIdx) == 0 || sp.domain > agg.MaxSortGroups || len(sp.extIdx) > 0 {
			sp.strategy = agg.StrategyScalar
		}
	case agg.StrategyReduce:
		// Forced onto a grouped plan, or chosen for one-group MIN/MAX, which
		// the reduction does not compute: the scalar loop over the domain
		// reserved above.
		if !reduce {
			sp.strategy = agg.StrategyScalar
		}
	case agg.StrategyScalar:
		// Always valid: the scalar loop is the degradation target above.
	}
	// Price the strategy that will actually run (after degradation), so
	// ExplainAnalyze can report assumed vs measured cycles/row per
	// strategy. The profile prices the plan: only the model costs below
	// read it.
	prof := opts.profile()
	sp.modelCost = agg.EstimateCost(sp.strategy, params, prof.AggCost())
	if sp.fused = newFusedFilter(sp); sp.fused != nil {
		// The one conjunct, priced with the group map it carries.
		sp.filterModel = sp.fused.modelCost(prof)
	} else {
		for _, pp := range sp.pushed {
			sp.filterModel += pp.modelCost(prof)
		}
	}
	sp.materialize = make([]bool, len(sp.sums))
	for _, i := range sp.sumIdx {
		sp.materialize[i] = !sp.sums[i].walked
	}
	for _, i := range sp.extIdx {
		sp.materialize[i] = true
	}

	// The widest column word a batch evaluates places the gather/compact
	// crossover — the packed width of a bit-packed column, the full 64
	// bits of one that decodes to int64 — whichever strategy ends up
	// consuming the vectors.
	for _, i := range sp.evalOrder {
		switch nd := sp.prog.Node(i); nd.Op {
		case expr.SumLeafPacked:
			sp.maxBits = max(sp.maxBits, nd.Width)
		case expr.SumLeafDecoded:
			sp.maxBits = 64
		}
	}
	sp.selCrossover = sel.Crossover(sp.maxBits)
	if sp.strategy == agg.StrategySortBased {
		sp.evalOrder = reach(sp.prog, sortLive)
		// Sort-based aggregation consumes a selection index vector and
		// gathers from raw packed columns; physical compaction would force a
		// full unpack it never needs (paper §5.2).
		sp.selCrossover = math.Inf(1)
	}

	if sp.strategy == agg.StrategyReduce {
		sp.gathered = sp.gatheredSums()
	}

	sp.decodeModel = sp.decodeCost(prof)
	if len(sp.evalOrder) > 0 {
		sp.decodePasses++
	}
	if sp.residual != nil {
		sp.decodeModel += sp.residual.decodeCost(prof)
		sp.decodePasses++
	}
	return sp, nil
}

// multiPlan lays out the multi-aggregate row and picks the SUM inputs its
// walk computes per row instead of reading (agg.Product); newSegPlan drops
// their nodes from evalOrder, so they get no vector and no typed pass. A
// product is a SumMul node (±x + a)·(±y + c) whose y is a 1-byte vector
// and whose every user is its SUM slot or the product chained on it — a
// MIN/MAX over it, or any other node reading it, keeps it materialized.
// The users are counted over evalOrder as newSegPlan first builds it,
// every slot's reach. The walk runs the two shapes the benchmark's queries
// have (agg.NewProductLayout), so multiPlan matches those on the row's 4-
// and 8-byte slots: one product on a 4-byte x no slot sums (the serving
// mix's Q1: disc_price), or a summed 4-byte x, a product on it and a
// second on that, ±itself (Q1: price, disc_price, charge). Anything else,
// or narrow slots the walk's one carrier word cannot hold beside the first
// factor (agg.NewProductLayout), reads every input from its vector as
// before.
//
// It returns the layout and the node behind each vector Accumulate reads:
// one per sumIdx slot, -1 for a product, then the products' operands no
// slot supplies.
func (sp *segPlan) multiPlan(wordSizes []int) (*agg.MultiLayout, []int, error) {
	prog := sp.prog
	inputs := make([]int, len(sp.sumIdx))
	var wide []int // the 4- and 8-byte slots, as indices of inputs
	for k, i := range sp.sumIdx {
		inputs[k] = sp.sums[i].term.Node
		if wordSizes[k] >= 4 {
			wide = append(wide, k)
		}
	}
	// users counts each node's readers: the slots, and the operator nodes a
	// batch evaluates for them.
	users := make([]int, prog.Len())
	for _, idx := range [2][]int{sp.sumIdx, sp.extIdx} {
		for _, i := range idx {
			users[sp.sums[i].term.Node]++
		}
	}
	for _, n := range sp.evalOrder {
		if nd := prog.Node(n); nd.Op != expr.SumLeafPacked && nd.Op != expr.SumLeafDecoded {
			for _, t := range [2]expr.SumTerm{nd.L, nd.R} {
				if !t.IsConst() {
					users[t.Node]++
				}
			}
		}
	}
	// product splits input k into base and factor when it is a product the
	// walk may compute: a 1-byte factor, and no reader but its slot and,
	// for the first of a chained pair, the second.
	product := func(k, readers int) (x, y expr.SumTerm, ok bool) {
		nd := prog.Node(inputs[k])
		if nd.Op != expr.SumMul || nd.L.IsConst() || nd.R.IsConst() || users[inputs[k]] != readers {
			return x, y, false
		}
		// The wider operand is always the left one, so a 1-byte factor is R.
		return nd.L, nd.R, prog.Node(nd.R.Node).Word == 1
	}
	// in is inputs with the products' slots -1 and their operands no slot
	// supplies appended.
	in := slices.Clone(inputs)
	input := func(n int) int {
		if j := slices.Index(in, n); j >= 0 {
			return j
		}
		in = append(in, n)
		return len(in) - 1
	}

	var prods []agg.Product
	switch {
	case len(sp.sumIdx) < 2:
		// Single-sum plans run multi-aggregate only when forced.
	case len(wide) == 1:
		if x, y, ok := product(wide[0], 1); ok && prog.Node(x.Node).Word == 4 {
			in[wide[0]] = -1
			prods = []agg.Product{{Col: wide[0], X: input(x.Node), Y: input(y.Node), NegX: x.Neg, NegY: y.Neg, AddX: x.Add, AddY: y.Add}}
		}
	case len(wide) == 3:
		for _, b := range wide {
			xb, z, ok := product(b, 1)
			if !ok || xb.Add != 0 {
				continue
			}
			a := slices.Index(inputs, xb.Node)
			if a < 0 || wordSizes[a] < 4 {
				continue
			}
			x, y, ok := product(a, 2)
			base := slices.Index(inputs, x.Node)
			if !ok || base < 0 || wordSizes[base] != 4 {
				continue
			}
			in[a], in[b] = -1, -1
			prods = []agg.Product{
				{Col: a, X: base, Y: input(y.Node), NegX: x.Neg, NegY: y.Neg, AddX: x.Add, AddY: y.Add},
				{Col: b, Y: input(z.Node), NegX: xb.Neg, NegY: z.Neg, AddY: z.Add},
			}
			break
		}
	}
	if prods != nil {
		if layout, err := agg.NewProductLayout(sp.domain, sp.special, wordSizes, prods); err == nil {
			return layout, in, nil
		}
	}
	layout, err := agg.NewMultiLayout(sp.domain, sp.special, wordSizes)
	return layout, inputs, err
}

// gatheredSum is one SUM slot of a Reduce plan as a gathered batch sums it
// without vectors (sel.GatherSum): the slot's node is a packed leaf x, or a
// product (±x + a)·(±y + c) of packed leaves. Since the signs square away,
// the product is sign·(x ± a)·(y ± c) — the constants take their factor's
// sign — and a leaf is x·1.
type gatheredSum struct {
	x, y *bitpack.Vector // y nil: the slot is x itself
	a, c uint64
	neg  bool
}

// sum adds the slot's node over the rows start+idx.
func (g *gatheredSum) sum(start int, idx sel.IndexVec) int64 {
	s := sel.GatherSum(g.x, g.y, g.a, g.c, start, idx)
	if g.neg {
		s = -s
	}
	return int64(s)
}

// gatheredSums returns how a gathered batch of this Reduce plan sums each
// sumIdx slot, or nil unless every slot's node is a packed leaf or a
// product of two: any other node keeps the vector path (evalProgram, then
// agg.ReduceSum).
func (sp *segPlan) gatheredSums() []gatheredSum {
	out := make([]gatheredSum, len(sp.sumIdx))
	for k, i := range sp.sumIdx {
		n := sp.sums[i].term.Node
		nd := sp.prog.Node(n)
		switch {
		case nd.Op == expr.SumLeafPacked:
			out[k] = gatheredSum{x: sp.progLeaves[n].packed, c: 1}
		case nd.Op == expr.SumMul && !nd.L.IsConst() && !nd.R.IsConst() &&
			sp.prog.Node(nd.L.Node).Op == expr.SumLeafPacked && sp.prog.Node(nd.R.Node).Op == expr.SumLeafPacked:
			// (±x + a)(±y + c) = ±(x ± a)(y ± c), each constant taking its
			// factor's sign and the product the signs' product.
			g := gatheredSum{x: sp.progLeaves[nd.L.Node].packed, y: sp.progLeaves[nd.R.Node].packed,
				a: uint64(nd.L.Add), c: uint64(nd.R.Add), neg: nd.L.Neg != nd.R.Neg}
			if nd.L.Neg {
				g.a = -g.a
			}
			if nd.R.Neg {
				g.c = -g.c
			}
			out[k] = g
		default:
			return nil
		}
	}
	return out
}

// proveNoOverflow applies the paper's §2.1 overflow analysis: segment
// metadata must show that summing the column over every row of the segment
// cannot exceed int64, both in frame-of-reference offset space (what the
// kernels accumulate) and after folding the reference back. When the proof
// fails the scan refuses the segment rather than silently wrapping —
// expressions are outside the proof and follow Go's wrapping semantics,
// as the paper's generated code is also outside its segment analysis.
func proveNoOverflow(bp *encoding.BitPackColumn, rows int, name string) error {
	if rows == 0 {
		return nil
	}
	const maxI64 = uint64(1<<63 - 1)
	maxOffset := uint64(bp.Max() - bp.Ref())
	if maxOffset > 0 && uint64(rows) > maxI64/maxOffset {
		return fmt.Errorf("engine: metadata cannot prove sum(%s) fits int64 over %d rows (max offset %d)", name, rows, maxOffset)
	}
	ref := bp.Ref()
	absRef := uint64(ref)
	if ref < 0 {
		absRef = uint64(-ref)
	}
	if absRef > 0 && uint64(rows) > maxI64/absRef {
		return fmt.Errorf("engine: metadata cannot prove sum(%s) reference fold fits int64 over %d rows", name, rows)
	}
	return nil
}
