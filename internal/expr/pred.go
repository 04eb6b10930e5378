package expr

import "fmt"

// Pred is a boolean predicate tree over int64 expressions. The engine
// evaluates it into selection byte vectors in the 0x00/0xFF convention
// (paper §4) so the result feeds the selection operators directly.
type Pred interface {
	// Columns reports the referenced column names, each once.
	Columns() []string
	// String renders the predicate in SQL-ish syntax.
	String() string
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// Mirror returns the operator with its operands exchanged: x op y holds
// exactly when y op.Mirror() x does.
func (op CmpOp) Mirror() CmpOp { return [...]CmpOp{OpEQ, OpNE, OpGT, OpGE, OpLT, OpLE}[op] }

// Complement returns the operator that holds exactly when op does not.
func (op CmpOp) Complement() CmpOp { return [...]CmpOp{OpNE, OpEQ, OpGE, OpGT, OpLE, OpLT}[op] }

// Cmp compares two scalar expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// And is logical conjunction.
type And struct{ L, R Pred }

// Or is logical disjunction.
type Or struct{ L, R Pred }

// Not is logical negation.
type Not struct{ P Pred }

// TruePred selects every row (the no-filter query shape).
type TruePred struct{}

// Eq builds l = r.
func Eq(l, r Expr) Pred { return Cmp{Op: OpEQ, L: l, R: r} }

// Ne builds l <> r.
func Ne(l, r Expr) Pred { return Cmp{Op: OpNE, L: l, R: r} }

// Lt builds l < r.
func Lt(l, r Expr) Pred { return Cmp{Op: OpLT, L: l, R: r} }

// Le builds l <= r.
func Le(l, r Expr) Pred { return Cmp{Op: OpLE, L: l, R: r} }

// Gt builds l > r.
func Gt(l, r Expr) Pred { return Cmp{Op: OpGT, L: l, R: r} }

// Ge builds l >= r.
func Ge(l, r Expr) Pred { return Cmp{Op: OpGE, L: l, R: r} }

// AndP builds l AND r.
func AndP(l, r Pred) Pred { return And{L: l, R: r} }

// OrP builds l OR r.
func OrP(l, r Pred) Pred { return Or{L: l, R: r} }

// NotP builds NOT p.
func NotP(p Pred) Pred { return Not{P: p} }

// True builds the always-true predicate.
func True() Pred { return TruePred{} }

// Columns implements Pred.
func (c Cmp) Columns() []string { return mergeCols(c.L.Columns(), c.R.Columns()) }

// String implements Pred.
func (c Cmp) String() string {
	op := map[CmpOp]string{OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">="}[c.Op]
	return fmt.Sprintf("(%s %s %s)", c.L, op, c.R)
}

// Columns implements Pred.
func (a And) Columns() []string { return mergeCols(a.L.Columns(), a.R.Columns()) }

// String implements Pred.
func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Columns implements Pred.
func (o Or) Columns() []string { return mergeCols(o.L.Columns(), o.R.Columns()) }

// String implements Pred.
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Columns implements Pred.
func (n Not) Columns() []string { return n.P.Columns() }

// String implements Pred.
func (n Not) String() string { return fmt.Sprintf("(NOT %s)", n.P) }

// Columns implements Pred.
func (TruePred) Columns() []string { return nil }

// String implements Pred.
func (TruePred) String() string { return "TRUE" }

// PushNot returns p without a NOT, each pushed down onto the leaves it
// governs: AND and OR exchange under De Morgan, a comparison takes the
// complementary operator (exact on a total order, wrapping or not), a
// string set flips Negate, and NOT TRUE is spelled 0 <> 0.
func PushNot(p Pred) Pred { return pushNot(p, false) }

func pushNot(p Pred, neg bool) Pred {
	switch t := p.(type) {
	case Not:
		return pushNot(t.P, !neg)
	case And:
		l, r := pushNot(t.L, neg), pushNot(t.R, neg)
		if neg {
			return Or{L: l, R: r}
		}
		return And{L: l, R: r}
	case Or:
		l, r := pushNot(t.L, neg), pushNot(t.R, neg)
		if neg {
			return And{L: l, R: r}
		}
		return Or{L: l, R: r}
	}
	if !neg {
		return p
	}
	switch t := p.(type) {
	case Cmp:
		t.Op = t.Op.Complement()
		return t
	case StrIn:
		t.Negate = !t.Negate
		return t
	default: // TruePred
		return Ne(Int(0), Int(0))
	}
}
