package expr

import (
	"reflect"
	"testing"
)

func TestCompileStrIn(t *testing.T) {
	strs := map[string][]string{"g": {"a", "b", "c", "b", "a"}}
	cases := []struct {
		p    Pred
		want []byte
	}{
		{StrEq("g", "b"), []byte{0, 0xFF, 0, 0xFF, 0}},
		{StrNe("g", "b"), []byte{0xFF, 0, 0xFF, 0, 0xFF}},
		{StrInSet("g", "a", "c"), []byte{0xFF, 0, 0xFF, 0, 0xFF}},
		{StrInSet("g", "missing"), []byte{0, 0, 0, 0, 0}},
		{StrIn{Col: "g", Values: []string{"missing"}, Negate: true}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
	}
	for _, c := range cases {
		if out := masks(holdsBoth(t, c.p, nil, strs, 5)); !reflect.DeepEqual(out, c.want) {
			t.Errorf("%s: got %v want %v", c.p, out, c.want)
		}
	}
}

func TestStrInComposition(t *testing.T) {
	strs := map[string][]string{"g": {"a", "b", "a", "b"}}
	ints := map[string][]int64{"x": {5, 5, 9, 9}}
	eval := func(p Pred) []byte { return masks(holdsBoth(t, p, ints, strs, 4)) }

	if out := eval(AndP(StrEq("g", "a"), Lt(Col("x"), Int(7)))); !reflect.DeepEqual(out, []byte{0xFF, 0, 0, 0}) {
		t.Fatalf("and: %v", out)
	}
	if out := eval(OrP(StrEq("g", "b"), Ge(Col("x"), Int(9)))); !reflect.DeepEqual(out, []byte{0, 0xFF, 0xFF, 0xFF}) {
		t.Fatalf("or: %v", out)
	}
	if out := eval(NotP(StrEq("g", "a"))); !reflect.DeepEqual(out, []byte{0, 0xFF, 0, 0xFF}) {
		t.Fatalf("not: %v", out)
	}
}

func TestStrColumnsAndStrings(t *testing.T) {
	if got := StrColumns(True()); len(got) != 0 {
		t.Fatalf("true pred cols: %v", got)
	}
	p := StrInSet("g", "a", "b")
	if p.String() != `(g IN ("a", "b"))` {
		t.Fatalf("String: %s", p.String())
	}
	neg := StrIn{Col: "g", Values: []string{"a", "b"}, Negate: true}
	if neg.String() != `(g NOT IN ("a", "b"))` {
		t.Fatalf("negated String: %s", neg.String())
	}
	if len(StrEq("g", "x").Columns()) != 0 {
		t.Fatal("StrIn must report no integer columns")
	}
}
