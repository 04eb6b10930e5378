// Package expr models the generated-code layer of the scan (paper §3): all
// scalar expressions in a query — filter predicates, grouping expressions,
// and aggregate inputs — are "compiled" ahead of execution. Where MemSQL
// emits LLVM machine code, this package composes specialized Go closures;
// both share the contract the paper calls essential for low compile time:
// generated functions always operate on decoded column data, batch at a
// time, never on encodings.
//
// Two evaluators live here. Filter predicates (and the row-at-a-time
// oracle) compile to the closure trees below, int64 throughout. Aggregate
// inputs compile to sum-expression programs (sumprog.go): typed vector
// operations over the unpacked column words, each node in the narrowest
// word segment metadata proves it fits.
//
// Values are int64 throughout. Fixed-point quantities (TPC-H prices,
// discounts) are represented as scaled integers by the schema layer.
package expr

import (
	"fmt"
	"sort"
	"strings"
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

// Env supplies decoded batch columns to compiled expressions. Get returns
// the decoded values of an integer column for the current batch; the slice
// is valid until the next batch. GetStrIDs and LookupStrID serve StrIn
// predicates on dictionary columns: the unpacked id vector for the batch,
// and value→id resolution against the current segment's dictionary. The
// string fields may be nil for queries without string predicates.
type Env struct {
	Get         func(name string) []int64
	GetStrIDs   func(name string) []uint8
	LookupStrID func(col, value string) (uint64, bool)
}

// Compiled is a vectorized expression evaluator: it fills out[0:n] with the
// expression value for each of the batch's first n rows.
type Compiled func(env *Env, n int, out []int64)

// CompileExpr builds the closure tree for e. Constant subtrees are folded
// at compile time, mirroring the query compiler's constant folding.
func CompileExpr(e Expr) Compiled {
	e = Fold(e)
	switch t := e.(type) {
	case Const:
		v := t.V
		return func(_ *Env, n int, out []int64) {
			for i := 0; i < n; i++ {
				out[i] = v
			}
		}
	case ColRef:
		name := t.Name
		return func(env *Env, n int, out []int64) {
			copy(out[:n], env.Get(name))
		}
	case Neg:
		inner := CompileExpr(t.E)
		return func(env *Env, n int, out []int64) {
			inner(env, n, out)
			for i := 0; i < n; i++ {
				out[i] = -out[i]
			}
		}
	case Bin:
		// Constant right operands are frequent (price * (1-discount) folds
		// partially; literal scale factors fold fully) and get specialized
		// loops without the scratch buffer.
		if rc, ok := Fold(t.R).(Const); ok {
			return compileBinConst(t.Op, CompileExpr(t.L), rc.V)
		}
		lf, rf := CompileExpr(t.L), CompileExpr(t.R)
		op := t.Op
		// The scratch buffer lives in the closure: compiled expressions are
		// per-scanner, so reuse across batches is safe and keeps the batch
		// loop allocation-free.
		var scratch []int64
		return func(env *Env, n int, out []int64) {
			if cap(scratch) < n {
				scratch = make([]int64, n)
			}
			lf(env, n, out)
			rf(env, n, scratch[:n])
			applyBin(op, out, scratch, n)
		}
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

func compileBinConst(op BinOp, lf Compiled, rv int64) Compiled {
	switch op {
	case OpAdd:
		return func(env *Env, n int, out []int64) {
			lf(env, n, out)
			for i := 0; i < n; i++ {
				out[i] += rv
			}
		}
	case OpSub:
		return func(env *Env, n int, out []int64) {
			lf(env, n, out)
			for i := 0; i < n; i++ {
				out[i] -= rv
			}
		}
	case OpMul:
		return func(env *Env, n int, out []int64) {
			lf(env, n, out)
			for i := 0; i < n; i++ {
				out[i] *= rv
			}
		}
	default: // OpDiv
		return func(env *Env, n int, out []int64) {
			lf(env, n, out)
			if rv == 0 {
				for i := 0; i < n; i++ {
					out[i] = 0
				}
				return
			}
			for i := 0; i < n; i++ {
				out[i] /= rv
			}
		}
	}
}

func applyBin(op BinOp, out, r []int64, n int) {
	switch op {
	case OpAdd:
		for i := 0; i < n; i++ {
			out[i] += r[i]
		}
	case OpSub:
		for i := 0; i < n; i++ {
			out[i] -= r[i]
		}
	case OpMul:
		for i := 0; i < n; i++ {
			out[i] *= r[i]
		}
	default: // OpDiv: guarded, zero divisor yields zero
		for i := 0; i < n; i++ {
			if r[i] == 0 {
				out[i] = 0
			} else {
				out[i] /= r[i]
			}
		}
	}
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

// FormatColumns renders a column list for diagnostics.
func FormatColumns(cols []string) string { return strings.Join(cols, ", ") }
