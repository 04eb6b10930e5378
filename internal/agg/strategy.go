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

// Params are the runtime parameters the chooser specializes on — exactly
// the paper's list: number of groups, number of aggregates, bits per value,
// and selectivity (paper §1, §5 intro).
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
	// Selectivity is the measured or estimated fraction of selected rows.
	Selectivity float64
}

// CostProfile holds the per-strategy cost coefficients EstimateCost
// evaluates, in modeled cycles per *processed* row. The shape of the model
// follows the paper — in-register linear in groups and width, sort-based
// and multi-aggregate amortizing a fixed cost over sums — but the
// coefficients are a measurement, not part of the model: StaticCost ships
// the hand-fit constants from this implementation's original benchmarks,
// and internal/costmodel re-fits every field per machine by probing the
// actual kernels. The engine owns the joint selection×aggregation choice
// and multiplies these by the fraction of rows the chosen selection method
// lets through.
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
	// and it runs one pass per size; zero (a profile fitted before the
	// probe existed) means ScalarPerSum.
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

// StaticCost returns the hand-fit constants the chooser used before
// machine calibration existed — kept as the deterministic fallback and the
// ablation baseline (Options.CostProfile = costmodel.Static()).
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

// staticCost backs nil-profile calls so EstimateCost and Choose never
// dereference user-supplied nil.
var staticCost = StaticCost()

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

// inf is the rejection cost for strategy/width pairs outside the model:
// large enough to lose every comparison, finite so arithmetic on estimates
// stays well-defined.
const inf = 1e30

// EstimateCost returns the modeled aggregation cost per processed row of
// running strategy s under p — its sums and the row count every query
// needs — using cp's coefficients (nil means the static profile). Exported
// so the engine can combine it with selection costs when making the joint
// per-segment choice. An in-register estimate for an unsupported word size
// returns a huge sentinel cost: the strategy cannot run there, so no finite
// number is honest.
func EstimateCost(s Strategy, p Params, cp *CostProfile) float64 {
	if cp == nil {
		cp = &staticCost
	}
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
		if cp.ScalarMixedPerSum > 0 && mixedWords(p.WordSizes) {
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

// Choose picks the aggregation strategy for a segment, mirroring the
// winner regions of the paper's Figures 8–10: in-register for small groups
// and narrow values, sort-based for low selectivity (its fixed cost applies
// only to surviving rows), multi-aggregate for many sums or wide values,
// scalar when nothing specialized applies. The coefficients come from cp
// (nil means the static profile), so where each region's border falls is a
// property of the machine the profile was calibrated on.
//
// One group is a rule, not a comparison: every other strategy is a loop
// over group ids, and the reduction is that loop with the ids taken out, so
// nothing competes with it.
func Choose(p Params, cp *CostProfile) Strategy {
	if p.Groups == 1 {
		return StrategyReduce
	}
	best := StrategyScalar
	bestCost := EstimateCost(StrategyScalar, p, cp)
	if InRegisterSupported(p.Groups, p.MaxWordSize) {
		if c := EstimateCost(StrategyInRegister, p, cp); c < bestCost {
			best, bestCost = StrategyInRegister, c
		}
	}
	if p.Sums >= 1 && p.Groups <= MaxSortGroups {
		if c := EstimateCost(StrategySortBased, p, cp); c < bestCost {
			best, bestCost = StrategySortBased, c
		}
	}
	// One sum has no other to share the walk with: its row is the carrier
	// and one word, the two read-modify-writes a row the scalar sum and its
	// COUNT pass also make, and the model's gap between the two is narrower
	// than one calibration resolves — the plan would follow the noise. Such
	// plans are left to the other strategies.
	if p.Sums >= 2 && multiFits(p.WordSizes) {
		if c := EstimateCost(StrategyMultiAggregate, p, cp); c < bestCost {
			best, bestCost = StrategyMultiAggregate, c
		}
	}
	return best
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
