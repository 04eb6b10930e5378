package agg

// Strategy identifies an aggregation strategy (paper §5). The Aggregate
// Processor chooses one per segment from the maximum group count (from
// segment metadata) and the number and width of aggregates (paper §3).
//
//bipie:enum
type Strategy uint8

const (
	// StrategyScalar is the naive per-row update loop (§5.1), the fallback
	// when no specialized kernel applies.
	StrategyScalar Strategy = iota
	// StrategySortBased bucket-sorts row indices by group then sums one
	// column and group at a time (§5.2); best at low selectivity with many
	// aggregates.
	StrategySortBased
	// StrategyInRegister keeps per-group accumulators in register lanes
	// (§5.3); best for few groups and narrow values.
	StrategyInRegister
	// StrategyMultiAggregate adds all sums of one row, and its count, to one
	// accumulator row per group in a single pass (§5.4); best for many
	// aggregates, insensitive to width and groups.
	StrategyMultiAggregate
	// StrategyReduce is the one-group case, every query without GROUP BY:
	// no group ids at all; a batch's COUNT is the rows it keeps and each
	// SUM one register reduction of its vector (ReduceSum).
	StrategyReduce
)

// String returns the strategy label used in the paper's grid figures.
func (s Strategy) String() string {
	switch s {
	case StrategyScalar:
		return "Scalar"
	case StrategySortBased:
		return "Sort"
	case StrategyInRegister:
		return "Register"
	case StrategyMultiAggregate:
		return "Multi"
	case StrategyReduce:
		return "Reduce"
	default:
		return "Unknown"
	}
}

// Params are the runtime parameters the chooser specializes on: the
// paper's list of number of groups, number of aggregates and bits per value
// (paper §1, §5 intro). Selectivity, the fourth, is not among them: every
// strategy runs on the rows the filter kept and is priced per processed
// row, so selectivity scales every estimate alike.
type Params struct {
	// Groups is the number of group ids the plan's kernels see: the segment's
	// group domain from metadata, plus a special group when that selection
	// is fused. A plan with one real group fuses none and has no ids at
	// all, so 1 is the one-group plan Choose reduces.
	Groups int
	// Sums is the number of SUM aggregates to compute.
	Sums int
	// MaxWordSize is the largest unpacked word size (1, 2, 4, 8 bytes)
	// among aggregate inputs.
	MaxWordSize int
	// WordSizes are the per-aggregate unpacked word sizes, for the
	// multi-aggregate row-fit check.
	WordSizes []int
}

// CostProfile holds the per-strategy cost coefficients EstimateCost
// evaluates, in modeled cycles per *processed* row. The shape of the model
// follows the paper — in-register linear in groups and width, sort-based
// and multi-aggregate amortizing a fixed cost over sums — but the
// coefficients are a measurement, not part of the model: StaticCost ships
// the hand-fit constants from this implementation's original benchmarks,
// and internal/costmodel re-fits every field per machine by probing the
// actual kernels. They price the plan Choose picked (Explain's model
// column, ExplainAnalyze's assumed cost); they pick nothing.
type CostProfile struct {
	// InRegPerGroup1/2/4 scale the linear in-register cost per processed
	// row, per sum, per group, at 1/2/4-byte unpacked values — wider values
	// mean fewer lanes per register and more operations per group (Fig 5:
	// ~0.6 cycles/row/group for byte lanes, ~2× at 2 bytes, ~3.3× at 4).
	InRegPerGroup1 float64 `json:"in_reg_per_group_1b"`
	InRegPerGroup2 float64 `json:"in_reg_per_group_2b"`
	InRegPerGroup4 float64 `json:"in_reg_per_group_4b"`
	// SortFixed is the bucket-sort cost per row regardless of sums and
	// SortPerSum the per-sum gather-and-add cost (Table 2 measured:
	// ~20 cycles/row at 1 sum, ~15/sum at 4).
	SortFixed  float64 `json:"sort_fixed"`
	SortPerSum float64 `json:"sort_per_sum"`
	// MultiFixed and MultiPerSum model the walk over the group ids with its
	// carrier word, row count included, plus one load-add-store per sum.
	MultiFixed  float64 `json:"multi_fixed"`
	MultiPerSum float64 `json:"multi_per_sum"`
	// ScalarPerSum is the specialized row-at-a-time update cost
	// (Figure 3 measured: ~1.6 cycles/row/sum). ScalarMixedPerSum is the
	// same loop's cost when the inputs arrive in more than one word size
	// and it runs one pass per size.
	ScalarPerSum      float64 `json:"scalar_per_sum"`
	ScalarMixedPerSum float64 `json:"scalar_mixed_per_sum"`
	// CountScalar and CountInRegPerGroup price the separate COUNT(*) pass the
	// scalar and in-register strategies run beside their sums: the
	// two-array scalar count, flat in groups, or in-register counting per
	// group up to InRegisterCountMaxGroups. Sort-based and multi-aggregate
	// count inside their own pass.
	CountScalar        float64 `json:"count_scalar"`
	CountInRegPerGroup float64 `json:"count_in_reg_per_group"`
	// ReducePerSum is the one-group reduction of one vector (ReduceSum);
	// its COUNT is one add a batch and costs nothing per row. It came after
	// the hand fit: its static figure is the agg.reduce probe's reading
	// (0.39 on a 2.1 GHz x86-64, 4-byte values).
	ReducePerSum float64 `json:"reduce_per_sum"`
}

// InRegisterCountMaxGroups is the domain size up to which in-register
// counting beats the multi-array scalar count on SWAR lanes (see
// cmd/bipie-bench fig2 and fig5).
const InRegisterCountMaxGroups = 3

// StaticCost returns the hand-fit constants the model was priced with
// before machine calibration existed: deterministic across machines, and
// the prices the Figures 8–10 rule in Choose was checked against
// (TestStrategyChoose).
func StaticCost() CostProfile {
	return CostProfile{
		InRegPerGroup1: 0.6,
		InRegPerGroup2: 1.2,
		InRegPerGroup4: 1.98,
		SortFixed:      7,
		SortPerSum:     13,
		MultiFixed:     1.3,
		MultiPerSum:    0.7,
		ScalarPerSum:   1.7,

		ScalarMixedPerSum: 1.7,

		CountScalar:        1.1,
		CountInRegPerGroup: 0.5,

		ReducePerSum: 0.4,
	}
}

// InRegPerGroup returns the per-row per-sum per-group in-register cost for
// an unpacked word size, with ok=false for widths the generated kernels do
// not cover (only 1/2/4-byte variants exist, §5.3) — the caller must treat
// the strategy as inapplicable rather than costing it with a magic
// constant.
func (cp *CostProfile) InRegPerGroup(wordSize int) (float64, bool) {
	switch wordSize {
	case 1:
		return cp.InRegPerGroup1, true
	case 2:
		return cp.InRegPerGroup2, true
	case 4:
		return cp.InRegPerGroup4, true
	default:
		return 0, false
	}
}

// inf is the price of strategy/width pairs outside the model: large enough
// to exceed every real estimate, finite so arithmetic on estimates stays
// well-defined.
const inf = 1e30

// EstimateCost returns the modeled aggregation cost per processed row of
// running strategy s under p — its sums and the row count every query
// needs — using cp's coefficients. The engine records it as the plan's
// assumed aggregation cost. An in-register estimate for an unsupported
// word size returns a huge sentinel cost: the strategy cannot run there,
// so no finite number is honest.
func EstimateCost(s Strategy, p Params, cp *CostProfile) float64 {
	sums := float64(p.Sums)
	switch s {
	case StrategyInRegister:
		perGroup, ok := cp.InRegPerGroup(p.MaxWordSize)
		if !ok {
			return inf
		}
		return perGroup*float64(p.Groups)*sums + cp.countCost(p.Groups)
	case StrategySortBased:
		return cp.SortFixed + cp.SortPerSum*sums
	case StrategyMultiAggregate:
		return cp.MultiFixed + cp.MultiPerSum*sums
	case StrategyReduce:
		return cp.ReducePerSum * sums
	default:
		perSum := cp.ScalarPerSum
		if mixedWords(p.WordSizes) {
			perSum = cp.ScalarMixedPerSum
		}
		return perSum*sums + cp.countCost(p.Groups)
	}
}

// countCost is the COUNT(*) pass of the strategies that do not count in
// their own: the kernel the engine picks for a domain of the given size.
func (cp *CostProfile) countCost(groups int) float64 {
	if groups <= InRegisterCountMaxGroups {
		return cp.CountInRegPerGroup * float64(groups)
	}
	return cp.CountScalar
}

func mixedWords(wordSizes []int) bool {
	for _, ws := range wordSizes {
		if ws != wordSizes[0] {
			return true
		}
	}
	return false
}

// Choose picks the aggregation strategy for a segment: the winner regions
// of the paper's Figures 8–10, fitted once, offline, as the paper fits
// them, and written down as rules. It reads no profile; the profile prices
// the plan this returns (EstimateCost). Under StaticCost() and the
// checked-in fit, each rule is the strategy with the lowest estimate at
// every point of groups 1–257 × 0–6 sums × every word-size list
// (TestStrategyChoose holds a coarse copy of that grid). Sort-based
// aggregation wins no point of it — its bucket sort and per-sum gather
// cost more per row than the scalar loop everywhere — so it runs only when
// forced (the engine's Options.ForceAggregation).
func Choose(p Params) Strategy {
	switch {
	case p.Groups == 1:
		// Every other strategy is a loop over group ids, and the reduction
		// is that loop with the ids taken out, so nothing competes with it.
		return StrategyReduce
	case p.Sums >= 2 && multiFits(p.WordSizes):
		// Figure 10: many sums share one walk over the group ids, with the
		// count in its carrier word, flat in groups and width. One sum has
		// no other to share the walk with: its row is the carrier and one
		// word, the two read-modify-writes a row the scalar sum and its
		// COUNT pass also make, so such plans go to the rules below.
		return StrategyMultiAggregate
	case p.Sums >= 1 && p.Groups == 2 && p.MaxWordSize == 1:
		// Figures 8–9: in-register cost grows with every group and with
		// the lane width, and the SWAR lanes here are a uint64's 8 bytes,
		// not AVX2's 32, so its region ends at two groups of byte values.
		return StrategyInRegister
	default:
		// Figure 8's remainder: one sum over wider values or more groups,
		// or a count alone, where the row loop is the cheapest pass.
		return StrategyScalar
	}
}

// MaxSortGroups bounds the bucket count of sort-based aggregation to the
// byte-wide group id domain.
const MaxSortGroups = 256

// multiFits reports whether the aggregate inputs get an accumulator-row
// layout (§5.4's applicability condition); the layout builder is the rule.
func multiFits(wordSizes []int) bool {
	if len(wordSizes) == 0 {
		return false
	}
	_, err := NewMultiLayout(0, -1, wordSizes)
	return err == nil
}
