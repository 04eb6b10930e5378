// Package expr models the generated-code layer of the scan (paper §3): all
// scalar expressions in a query — filter predicates, grouping expressions,
// and aggregate inputs — are "compiled" ahead of execution. Where MemSQL
// emits LLVM machine code, this package compiles a segment's expressions
// into sum-expression programs (sumprog.go): straight-line typed vector
// operations over the unpacked column words, each node in the narrowest
// word segment metadata proves it fits. Aggregate inputs and the values
// residual filter comparisons read go through that one evaluator; the
// engine turns a comparison's node into a selection mask.
//
// The paper's generated code always operates on decoded int64 data; here
// only a node whose range is negative or unprovable takes the int64 lane.
// The row interpreter in row.go is the other reading of the same trees —
// one row at a time, wrapping int64 throughout — kept free of any code the
// programs use so the naive oracle checks them independently.
//
// Fixed-point quantities (TPC-H prices, discounts) are represented as
// scaled integers by the schema layer.
package expr

import (
	"fmt"
	"sort"
)

// Expr is a scalar expression tree evaluating to an int64 per row.
type Expr interface {
	// Columns reports the referenced column names, each once.
	Columns() []string
	// String renders the expression in SQL-ish syntax.
	String() string
}

// ColRef references a table column by name.
type ColRef struct{ Name string }

// Const is an integer literal.
type Const struct{ V int64 }

// BinOp is an arithmetic operator.
type BinOp uint8

// Arithmetic operators supported in aggregate inputs and filters.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
)

// Bin is a binary arithmetic node.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Col builds a column reference.
func Col(name string) Expr { return ColRef{Name: name} }

// Int builds an integer literal.
func Int(v int64) Expr { return Const{V: v} }

// Add builds l + r.
func Add(l, r Expr) Expr { return Bin{Op: OpAdd, L: l, R: r} }

// Sub builds l - r.
func Sub(l, r Expr) Expr { return Bin{Op: OpSub, L: l, R: r} }

// Mul builds l * r.
func Mul(l, r Expr) Expr { return Bin{Op: OpMul, L: l, R: r} }

// Div builds l / r (truncating; division by zero yields zero, the scan
// engine's guarded-divide convention so a batch never faults).
func Div(l, r Expr) Expr { return Bin{Op: OpDiv, L: l, R: r} }

// Negate builds -e.
func Negate(e Expr) Expr { return Neg{E: e} }

// Columns implements Expr.
func (c ColRef) Columns() []string { return []string{c.Name} }

// String implements Expr.
func (c ColRef) String() string { return c.Name }

// Columns implements Expr.
func (c Const) Columns() []string { return nil }

// String implements Expr.
func (c Const) String() string { return fmt.Sprintf("%d", c.V) }

// Columns implements Expr.
func (b Bin) Columns() []string { return mergeCols(b.L.Columns(), b.R.Columns()) }

// String implements Expr.
func (b Bin) String() string {
	op := map[BinOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}[b.Op]
	return fmt.Sprintf("(%s %s %s)", b.L, op, b.R)
}

// Columns implements Expr.
func (n Neg) Columns() []string { return n.E.Columns() }

// String implements Expr.
func (n Neg) String() string { return fmt.Sprintf("(-%s)", n.E) }

func mergeCols(a, b []string) []string {
	seen := make(map[string]struct{}, len(a)+len(b))
	var out []string
	for _, s := range append(append([]string(nil), a...), b...) {
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// IsCol reports whether e is a bare column reference and returns its name;
// the engine uses this to route plain-column aggregates through the fused
// encoded-data kernels instead of the expression evaluator.
func IsCol(e Expr) (string, bool) {
	if c, ok := e.(ColRef); ok {
		return c.Name, true
	}
	return "", false
}

// Fold performs constant folding on e, returning a simplified tree.
func Fold(e Expr) Expr {
	switch t := e.(type) {
	case Bin:
		l, r := Fold(t.L), Fold(t.R)
		lc, lok := l.(Const)
		rc, rok := r.(Const)
		if lok && rok {
			switch t.Op {
			case OpAdd:
				return Const{V: lc.V + rc.V}
			case OpSub:
				return Const{V: lc.V - rc.V}
			case OpMul:
				return Const{V: lc.V * rc.V}
			default:
				if rc.V == 0 {
					return Const{V: 0}
				}
				return Const{V: lc.V / rc.V}
			}
		}
		return Bin{Op: t.Op, L: l, R: r}
	case Neg:
		inner := Fold(t.E)
		if c, ok := inner.(Const); ok {
			return Const{V: -c.V}
		}
		return Neg{E: inner}
	default:
		return e
	}
}
