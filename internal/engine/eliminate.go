package engine

import (
	"bipie/internal/colstore"
	"bipie/internal/expr"
)

// canEliminate reports whether segment metadata proves the filter rejects
// every row of the segment, allowing the scan to skip it entirely (paper
// §2.1: "the metadata allows for segment elimination during query
// processing"). Only conservative conclusions are drawn: comparisons of a
// bare column against a constant inside a top-level conjunction. Anything
// else returns false and the segment is scanned.
func canEliminate(seg *colstore.Segment, p expr.Pred) bool {
	switch t := p.(type) {
	case expr.And:
		// A conjunction rejects everything if either side does.
		return canEliminate(seg, t.L) || canEliminate(seg, t.R)
	case expr.Cmp:
		// The pushdown clamp against the column's segment bounds, read for
		// its verdict alone: the comparison rejects the segment exactly when
		// it clamps to pushNone.
		_, op, _, ok := clampSegCmp(t, seg)
		return ok && op == pushNone
	case expr.StrIn:
		// The dictionary plays the role min/max metadata plays for integer
		// columns: the segment goes when none of its codes qualifies.
		col, err := seg.StrCol(t.Col)
		if err != nil {
			return false
		}
		_, selected := strMembers(t, col)
		return selected == 0
	default:
		return false
	}
}
