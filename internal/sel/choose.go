package sel

// Method identifies a selection strategy (paper §4). The engine picks one
// per batch from the measured selectivity of the batch's filter result
// (paper §3: "the choice of the selection method can change from batch to
// batch, and is based on the actual selectivity calculated after evaluating
// the filter for the batch").
//
//bipie:enum
type Method uint8

const (
	// MethodGather unpacks only selected values via indexed reads; best at
	// low selectivity.
	MethodGather Method = iota
	// MethodCompact unpacks the whole batch then physically compacts; the
	// safe fallback, best at medium selectivity or when post-filter per-row
	// work is expensive.
	MethodCompact
	// MethodSpecialGroup fuses the filter into the group id map; best at
	// selectivity close to 1.0 when an aggregation follows.
	MethodSpecialGroup
)

// String returns the strategy name as used in the paper's figures.
func (m Method) String() string {
	switch m {
	case MethodGather:
		return "Gather"
	case MethodCompact:
		return "Compact"
	case MethodSpecialGroup:
		return "Special Group"
	default:
		return "Unknown"
	}
}

// specialGroupThreshold is the selectivity at or above which fusing the
// filter into the group map beats removing rows: nearly all rows survive,
// so sequential streaming with one wasted group out-runs indexed reads
// (paper §6.1: "special group for selectivities close to 1.0"; the Figure
// 8–10 grids show it winning from roughly 60–70% upward).
const specialGroupThreshold = 0.65

// ChooseAt picks a selection strategy for one batch. selectivity is the
// measured fraction of selected rows, crossover the selectivity above which
// compaction beats gather at the packed width of the widest selected column
// (costmodel.Profile.GatherCompactCrossover: solved from calibrated probes,
// or the static Figure-7 interpolation), and fusedAggregation reports
// whether the plan reserved a special group id to fuse the selection into.
// A plan with one group and no MIN/MAX — every query without GROUP BY —
// has no group ids at all (agg.StrategyReduce) and reserves none, nor does
// a plan whose group domain is already at MaxGroups. A strategy forced onto
// a one-group plan, or one that must map ids for MIN/MAX, reserves one as
// a grouped plan does. The special-group rule competes on
// streaming-vs-indexed access, not decode throughput, so its measured
// threshold carries across machines.
func ChooseAt(selectivity, crossover float64, fusedAggregation bool) Method {
	if fusedAggregation && selectivity >= specialGroupThreshold {
		return MethodSpecialGroup
	}
	if selectivity < crossover {
		return MethodGather
	}
	return MethodCompact
}
