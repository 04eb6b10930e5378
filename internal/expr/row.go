package expr

// Row is one table row as the row interpreter reads it.
type Row interface {
	// Int returns the row's value of an integer column.
	Int(col string) int64
	// Str returns the row's value of a string column.
	Str(col string) string
}

// EvalRow interprets e over one row: wrapping int64 arithmetic, truncating
// division with a zero divisor yielding zero. It is the meaning every
// compiled form of an expression is held to, and deliberately shares no
// code with them.
func EvalRow(e Expr, r Row) int64 {
	switch t := e.(type) {
	case Const:
		return t.V
	case ColRef:
		return r.Int(t.Name)
	case Neg:
		return -EvalRow(t.E, r)
	case Bin:
		x, y := EvalRow(t.L, r), EvalRow(t.R, r)
		switch t.Op {
		case OpAdd:
			return x + y
		case OpSub:
			return x - y
		case OpMul:
			return x * y
		}
		if y == 0 {
			return 0
		}
		return x / y // MinInt64 / -1 wraps to MinInt64, as Go defines it
	}
	panic("expr: unknown expression node")
}

// HoldsRow interprets p over one row; a string predicate compares the
// row's string itself, never a dictionary id.
func HoldsRow(p Pred, r Row) bool {
	switch t := p.(type) {
	case TruePred:
		return true
	case And:
		return HoldsRow(t.L, r) && HoldsRow(t.R, r)
	case Or:
		return HoldsRow(t.L, r) || HoldsRow(t.R, r)
	case Not:
		return !HoldsRow(t.P, r)
	case StrIn:
		in, v := false, r.Str(t.Col)
		for _, s := range t.Values {
			in = in || s == v
		}
		return in != t.Negate
	case Cmp:
		x, y := EvalRow(t.L, r), EvalRow(t.R, r)
		switch t.Op {
		case OpEQ:
			return x == y
		case OpNE:
			return x != y
		case OpLT:
			return x < y
		case OpLE:
			return x <= y
		case OpGT:
			return x > y
		}
		return x >= y
	}
	panic("expr: unknown predicate node")
}
