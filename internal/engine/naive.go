package engine

import (
	"strconv"

	"bipie/internal/colstore"
	"bipie/internal/expr"
	"bipie/internal/table"
)

// RunNaive executes the same query shape with a classical row-at-a-time
// plan: decode every referenced column, interpret the filter and the
// aggregate inputs per row straight off the expression trees
// (expr.HoldsRow, expr.EvalRow — none of the scan's programs or kernels),
// and aggregate through a hash table keyed on the group values. It
// is the "previous implementation" baseline BIPie is measured against
// (paper §3: "specialization of operators allows BIPie to outperform the
// previous implementation") and the differential-testing oracle for the
// fused engine.
func RunNaive(t *table.Table, q *Query) (*Result, error) {
	if err := q.validate(t); err != nil {
		return nil, err
	}
	type cell struct {
		keys  []string
		stats []Stat
	}
	groups := make(map[string]*cell)

	// Integer columns to decode per segment: whatever the filter, the
	// aggregates or the grouping reads.
	needed := append([]string(nil), q.GroupBy...)
	if q.Filter != nil {
		needed = append(needed, q.Filter.Columns()...)
	}
	for _, a := range q.Aggregates {
		if a.Arg != nil {
			needed = append(needed, a.Arg.Columns()...)
		}
	}

	allSegments := t.Segments()
	if ms := t.MutableSegment(); ms != nil {
		allSegments = append(append([]*colstore.Segment(nil), allSegments...), ms)
	}
	for _, seg := range allSegments {
		r := &naiveRow{seg: seg, decoded: make(map[string][]int64, len(needed))}
		for _, name := range needed {
			if col, err := seg.IntCol(name); err == nil && r.decoded[name] == nil && seg.Rows() > 0 {
				r.decoded[name] = make([]int64, seg.Rows())
				col.Decode(r.decoded[name], 0)
			}
		}
		for r.row = 0; r.row < seg.Rows(); r.row++ {
			if seg.IsDeleted(r.row) {
				continue
			}
			if q.Filter != nil && !expr.HoldsRow(q.Filter, r) {
				continue
			}
			// Integer keys render as decimal strings, as the fused engine's do.
			keys := make([]string, len(q.GroupBy))
			for i, name := range q.GroupBy {
				if vals, ok := r.decoded[name]; ok {
					keys[i] = strconv.FormatInt(vals[r.row], 10)
				} else {
					keys[i] = r.Str(name)
				}
			}
			k := groupKey(keys)
			c, ok := groups[k]
			if !ok {
				c = &cell{keys: keys, stats: make([]Stat, len(q.Aggregates))}
				groups[k] = c
			}
			for ai := range q.Aggregates {
				first := c.stats[ai].Count == 0
				c.stats[ai].Count++
				if q.Aggregates[ai].Kind == Count {
					continue
				}
				v := expr.EvalRow(q.Aggregates[ai].Arg, r)
				switch q.Aggregates[ai].Kind {
				case Min:
					if first || v < c.stats[ai].Sum {
						c.stats[ai].Sum = v
					}
				case Max:
					if first || v > c.stats[ai].Sum {
						c.stats[ai].Sum = v
					}
				default:
					c.stats[ai].Sum += v
				}
			}
		}
	}

	res := &Result{
		GroupCols: append([]string(nil), q.GroupBy...),
		AggNames:  q.aggNames(),
		AggKinds:  q.aggKinds(),
	}
	for _, c := range groups {
		res.Rows = append(res.Rows, Row{Keys: c.keys, Stats: c.stats})
	}
	res.Rows = finishRows(q, res.Rows)
	return res, nil
}

// naiveRow is one row of a segment as the row interpreter reads it: integer
// columns decoded in full up front, strings looked up in the dictionary.
type naiveRow struct {
	seg     *colstore.Segment
	decoded map[string][]int64
	row     int
}

func (r *naiveRow) Int(col string) int64 { return r.decoded[col][r.row] }

func (r *naiveRow) Str(col string) string {
	c, err := r.seg.StrCol(col)
	if err != nil {
		panic(err) // validate checked every column the query names
	}
	return c.Get(r.row)
}
