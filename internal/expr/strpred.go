package expr

import (
	"fmt"
	"sort"
	"strings"
)

// StrIn is a predicate over a dictionary-encoded string column: the row is
// selected when the column's value is (or, negated, is not) one of Values.
//
// The engine evaluates it on encoded data, never on strings: at plan time
// the value set is pre-evaluated against the segment's sorted dictionary
// once (values absent from the dictionary match nothing) into a qualifying
// id set. An empty or full set is metadata's verdict on the segment (the
// predicate is false or true for every row, and never evaluated). As a
// top-level conjunct any other set collapses to a packed id comparison or
// range, or a 256-entry bitmap over the packed id vector — never unpacking
// ids for the point and range shapes. Otherwise
// (under OR, with the dict domain disabled, or over a dictionary wider than
// a byte) it is a leaf of the residual predicate: the ids unpack to their
// smallest word and index a membership table as long as the dictionary.
// Both are the dictionary analogue of the paper's integer filters on
// encoded columns (§3: "dictionary encoding already provides the injective
// mapping from column values to small integers").
type StrIn struct {
	Col    string
	Values []string
	Negate bool
}

// StrEq builds col = value.
func StrEq(col, value string) Pred { return StrIn{Col: col, Values: []string{value}} }

// StrNe builds col <> value.
func StrNe(col, value string) Pred { return StrIn{Col: col, Values: []string{value}, Negate: true} }

// StrInSet builds col IN (values...).
func StrInSet(col string, values ...string) Pred { return StrIn{Col: col, Values: values} }

// Columns implements Pred; StrIn references no integer columns.
func (StrIn) Columns() []string { return nil }

// String implements Pred.
func (s StrIn) String() string {
	quoted := make([]string, len(s.Values))
	for i, v := range s.Values {
		quoted[i] = fmt.Sprintf("%q", v)
	}
	op := "IN"
	if s.Negate {
		op = "NOT IN"
	}
	if len(s.Values) == 1 {
		op = "="
		if s.Negate {
			op = "<>"
		}
		return fmt.Sprintf("(%s %s %s)", s.Col, op, quoted[0])
	}
	return fmt.Sprintf("(%s %s (%s))", s.Col, op, strings.Join(quoted, ", "))
}

// StrColumns returns the dictionary-encoded string columns a predicate
// tree references, each once, sorted. The engine uses it to validate the
// query and to know which id vectors a batch must unpack.
func StrColumns(p Pred) []string {
	seen := map[string]struct{}{}
	var walk func(Pred)
	walk = func(p Pred) {
		switch t := p.(type) {
		case StrIn:
			seen[t.Col] = struct{}{}
		case And:
			walk(t.L)
			walk(t.R)
		case Or:
			walk(t.L)
			walk(t.R)
		case Not:
			walk(t.P)
		}
	}
	walk(p)
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
