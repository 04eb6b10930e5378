// Package engine implements the BIPie columnstore scan (paper §3): it fuses
// decoding, filtering, grouping, and aggregation into a single pass over
// encoded segments, choosing among specialized selection and aggregation
// operators at run time. The aggregation strategy is fixed per segment from
// metadata (group-count upper bound, aggregate count and widths); the
// selection method is re-chosen per batch from the measured selectivity.
package engine

import (
	"errors"
	"fmt"
	"sort"

	"bipie/internal/expr"
	"bipie/internal/table"
)

// AggKind is the aggregate function of one output column.
type AggKind uint8

const (
	// Count is COUNT(*).
	Count AggKind = iota
	// Sum is SUM(expression).
	Sum
	// Avg is AVG(expression), computed exactly as SUM/COUNT at output time.
	Avg
	// Min is MIN(expression).
	Min
	// Max is MAX(expression).
	Max
)

// Aggregate is one aggregate output column.
type Aggregate struct {
	Kind AggKind
	// Arg is the aggregated expression; nil (and ignored) for Count.
	Arg expr.Expr
	// Name labels the output column; defaults to a rendering of the
	// aggregate if empty.
	Name string
}

// CountStar builds a COUNT(*) aggregate.
func CountStar() Aggregate { return Aggregate{Kind: Count, Name: "count(*)"} }

// SumOf builds SUM(e).
func SumOf(e expr.Expr) Aggregate {
	return Aggregate{Kind: Sum, Arg: e, Name: "sum(" + e.String() + ")"}
}

// AvgOf builds AVG(e).
func AvgOf(e expr.Expr) Aggregate {
	return Aggregate{Kind: Avg, Arg: e, Name: "avg(" + e.String() + ")"}
}

// MinOf builds MIN(e).
func MinOf(e expr.Expr) Aggregate {
	return Aggregate{Kind: Min, Arg: e, Name: "min(" + e.String() + ")"}
}

// MaxOf builds MAX(e).
func MaxOf(e expr.Expr) Aggregate {
	return Aggregate{Kind: Max, Arg: e, Name: "max(" + e.String() + ")"}
}

// Query is the workload shape BIPie executes directly on encoded data
// (paper §2.3): SELECT g..., aggregates FROM t WHERE filter GROUP BY g...
type Query struct {
	// GroupBy lists dictionary-encoded string columns to group on; empty
	// means a single global group.
	GroupBy []string
	// Aggregates are the aggregate output columns; at least one.
	Aggregates []Aggregate
	// Filter restricts input rows; nil selects everything. Filters
	// reference Int64 columns (string predicates are rewritten to integer
	// dictionary-id predicates by the caller; see encoding.DictColumn.IDOf).
	Filter expr.Pred
	// Having post-filters result groups on aggregate values; the
	// conditions form a conjunction. Each condition references an
	// aggregate by its position in Aggregates.
	Having []HavingCond
	// Limit caps the number of result rows after ordering and HAVING;
	// zero means no limit.
	Limit int
}

// HavingCond is one HAVING conjunct: aggregate OP value.
type HavingCond struct {
	// Agg indexes Query.Aggregates.
	Agg int
	// Op is the comparison operator.
	Op expr.CmpOp
	// Value is the right-hand constant.
	Value int64
}

// matches evaluates the condition on a group's stat for an aggregate of
// the given kind. AVG compares exactly with cross-multiplication
// (sum/count OP v ⇔ sum OP v·count, since count > 0 for every emitted
// group), avoiding floating point.
func (h HavingCond) matches(kind AggKind, st Stat) bool {
	var l, r int64
	switch kind {
	case Count:
		l, r = st.Count, h.Value
	case Avg:
		l, r = st.Sum, h.Value*st.Count
	default:
		l, r = st.Sum, h.Value
	}
	switch h.Op {
	case expr.OpEQ:
		return l == r
	case expr.OpNE:
		return l != r
	case expr.OpLT:
		return l < r
	case expr.OpLE:
		return l <= r
	case expr.OpGT:
		return l > r
	default:
		return l >= r
	}
}

// Stat is the accumulated state of one aggregate for one group.
type Stat struct {
	// Count is the number of contributing rows.
	Count int64
	// Sum is the accumulated sum; for MIN/MAX aggregates it holds the
	// extremum instead (zero for COUNT aggregates).
	Sum int64
}

// Row is one result group.
type Row struct {
	// Keys are the group-by values, in GroupBy order.
	Keys []string
	// Stats holds one entry per aggregate, in query order.
	Stats []Stat
}

// Result is a completed aggregation, rows sorted by group keys.
type Result struct {
	// GroupCols are the group-by column names.
	GroupCols []string
	// AggNames are the aggregate output column names.
	AggNames []string
	// AggKinds are the aggregate functions, parallel to AggNames.
	AggKinds []AggKind
	// Rows are the groups in ascending key order (the paper's Q1 ORDER BY
	// falls out for free).
	Rows []Row
}

// Value returns aggregate i of row r as the SQL result value: the count for
// COUNT, the sum for SUM. For AVG use the Avg method.
func (r *Row) Value(q *Query, i int) int64 {
	if q.Aggregates[i].Kind == Count {
		return r.Stats[i].Count
	}
	return r.Stats[i].Sum
}

// Avg returns aggregate i as an exact average; it is meaningful for any
// aggregate kind since counts are tracked uniformly.
func (r *Row) Avg(i int) float64 {
	if r.Stats[i].Count == 0 {
		return 0
	}
	return float64(r.Stats[i].Sum) / float64(r.Stats[i].Count)
}

// validate resolves and checks the query against the table schema. Every
// expression and predicate node must be one the planner and the row
// interpreter know: Expr and Pred have only exported methods, so a caller's
// own type satisfies them, and it is rejected here, before anything walks
// the trees.
func (q *Query) validate(t *table.Table) error {
	if len(q.Aggregates) == 0 {
		return fmt.Errorf("engine: query needs at least one aggregate")
	}
	for _, g := range q.GroupBy {
		if !t.HasColumn(g, table.String) && !t.HasColumn(g, table.Int64) {
			return fmt.Errorf("engine: group-by column %q does not exist", g)
		}
	}
	for i, a := range q.Aggregates {
		if a.Kind == Count {
			continue
		}
		if a.Arg == nil {
			return fmt.Errorf("engine: aggregate %d has no argument", i)
		}
		if err := checkExpr(a.Arg); err != nil {
			return err
		}
		for _, c := range a.Arg.Columns() {
			if !t.HasColumn(c, table.Int64) {
				return fmt.Errorf("engine: aggregate input column %q is not an integer column", c)
			}
		}
	}
	if q.Filter != nil {
		if err := checkPred(q.Filter); err != nil {
			return err
		}
		for _, c := range q.Filter.Columns() {
			if !t.HasColumn(c, table.Int64) {
				return fmt.Errorf("engine: filter column %q is not an integer column", c)
			}
		}
		for _, c := range expr.StrColumns(q.Filter) {
			if !t.HasColumn(c, table.String) {
				return fmt.Errorf("engine: string-predicate column %q is not a string column", c)
			}
		}
	}
	for _, h := range q.Having {
		if h.Agg < 0 || h.Agg >= len(q.Aggregates) {
			return fmt.Errorf("engine: HAVING references aggregate %d of %d", h.Agg, len(q.Aggregates))
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("engine: negative LIMIT %d", q.Limit)
	}
	return nil
}

// checkExpr and checkPred reject a tree holding a node outside the closed
// set of expression and predicate types.
func checkExpr(e expr.Expr) error {
	switch t := e.(type) {
	case expr.ColRef, expr.Const:
		return nil
	case expr.Neg:
		return checkExpr(t.E)
	case expr.Bin:
		return errors.Join(checkExpr(t.L), checkExpr(t.R))
	}
	return fmt.Errorf("engine: unknown expression node %T", e)
}

func checkPred(p expr.Pred) error {
	switch t := p.(type) {
	case expr.TruePred, expr.StrIn:
		return nil
	case expr.Cmp:
		return errors.Join(checkExpr(t.L), checkExpr(t.R))
	case expr.And:
		return errors.Join(checkPred(t.L), checkPred(t.R))
	case expr.Or:
		return errors.Join(checkPred(t.L), checkPred(t.R))
	case expr.Not:
		return checkPred(t.P)
	}
	return fmt.Errorf("engine: unknown predicate node %T", p)
}

// aggKinds lists the aggregate functions in query order.
func (q *Query) aggKinds() []AggKind {
	kinds := make([]AggKind, len(q.Aggregates))
	for i, a := range q.Aggregates {
		kinds[i] = a.Kind
	}
	return kinds
}

// aggNames renders the output column names.
func (q *Query) aggNames() []string {
	names := make([]string, len(q.Aggregates))
	for i, a := range q.Aggregates {
		if a.Name != "" {
			names[i] = a.Name
			continue
		}
		switch a.Kind {
		case Count:
			names[i] = "count(*)"
		case Sum:
			names[i] = "sum(" + a.Arg.String() + ")"
		case Min:
			names[i] = "min(" + a.Arg.String() + ")"
		case Max:
			names[i] = "max(" + a.Arg.String() + ")"
		default:
			names[i] = "avg(" + a.Arg.String() + ")"
		}
	}
	return names
}

// finishRows applies the result-side clauses shared by both engines:
// sort by group key, HAVING conjunction, LIMIT.
func finishRows(q *Query, rows []Row) []Row {
	sortRows(rows)
	if len(q.Having) > 0 {
		kept := rows[:0]
		for _, r := range rows {
			ok := true
			for _, h := range q.Having {
				if !h.matches(q.Aggregates[h.Agg].Kind, r.Stats[h.Agg]) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows
}

// sortRows orders result rows by their key tuples.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].Keys, rows[j].Keys
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
