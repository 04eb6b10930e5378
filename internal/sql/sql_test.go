package sql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/table"
)

func TestParseBasic(t *testing.T) {
	st, err := Parse("SELECT g, count(*), sum(x) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if st.Table != "t" {
		t.Fatalf("table=%q", st.Table)
	}
	q := st.Query
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "g" {
		t.Fatalf("GroupBy=%v", q.GroupBy)
	}
	if len(q.Aggregates) != 2 || q.Aggregates[0].Kind != engine.Count || q.Aggregates[1].Kind != engine.Sum {
		t.Fatalf("Aggregates=%+v", q.Aggregates)
	}
	if name, ok := expr.IsCol(q.Aggregates[1].Arg); !ok || name != "x" {
		t.Fatalf("sum arg=%v", q.Aggregates[1].Arg)
	}
	if q.Filter != nil {
		t.Fatal("unexpected filter")
	}
}

func TestParseQ1Shape(t *testing.T) {
	src := `SELECT l_returnflag, l_linestatus,
	  sum(l_quantity), sum(l_extendedprice),
	  sum(l_extendedprice * (100 - l_discount)) AS disc_price,
	  sum(l_extendedprice * (100 - l_discount) * (100 + l_tax)),
	  avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
	FROM lineitem
	WHERE l_shipdate <= 2436
	GROUP BY l_returnflag, l_linestatus`
	st, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q := st.Query
	if st.Table != "lineitem" || len(q.GroupBy) != 2 || len(q.Aggregates) != 8 {
		t.Fatalf("shape: %q %v %d", st.Table, q.GroupBy, len(q.Aggregates))
	}
	if q.Aggregates[2].Name != "disc_price" {
		t.Fatalf("alias=%q", q.Aggregates[2].Name)
	}
	if q.Filter == nil || !strings.Contains(q.Filter.String(), "l_shipdate <= 2436") {
		t.Fatalf("filter=%v", q.Filter)
	}
	kinds := []engine.AggKind{engine.Sum, engine.Sum, engine.Sum, engine.Sum, engine.Avg, engine.Avg, engine.Avg, engine.Count}
	for i, k := range kinds {
		if q.Aggregates[i].Kind != k {
			t.Fatalf("agg %d kind=%v want %v", i, q.Aggregates[i].Kind, k)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"SELECT count(*) FROM t WHERE a < 5", "(a < 5)"},
		{"SELECT count(*) FROM t WHERE a >= 5 AND b <> 3", "((a >= 5) AND (b <> 3))"},
		{"SELECT count(*) FROM t WHERE a = 1 OR b = 2 AND c = 3", "((a = 1) OR ((b = 2) AND (c = 3)))"},
		{"SELECT count(*) FROM t WHERE NOT a != 2", "(NOT (a <> 2))"},
		{"SELECT count(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3", "(((a = 1) OR (b = 2)) AND (c = 3))"},
		{"SELECT count(*) FROM t WHERE (a + 1) * 2 <= b - 3", "(((a + 1) * 2) <= (b - 3))"},
		{"SELECT count(*) FROM t WHERE g = 'x'", `(g = "x")`},
		{"SELECT count(*) FROM t WHERE g <> 'it''s'", `(g <> "it's")`},
		{"SELECT count(*) FROM t WHERE g IN ('a', 'b')", `(g IN ("a", "b"))`},
		{"SELECT count(*) FROM t WHERE g NOT IN ('a')", `(g <> "a")`},
	}
	for _, c := range cases {
		st, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := st.Query.Filter.String(); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.src, got, c.want)
		}
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	st, err := Parse("SELECT sum(a + b * c - d / 2) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Query.Aggregates[0].Arg.String(); got != "((a + (b * c)) - (d / 2))" {
		t.Fatalf("precedence: %s", got)
	}
	st, err = Parse("SELECT sum(-(a - 3)) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Query.Aggregates[0].Arg.String(); got != "(-(a - 3))" {
		t.Fatalf("negation: %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT count(*) t",
		"SELECT count(x) FROM t",                // only count(*)
		"SELECT g FROM t",                       // bare column without group by
		"SELECT g, count(*) FROM t",             // g not grouped
		"SELECT count(*) FROM t WHERE",          // missing predicate
		"SELECT count(*) FROM t WHERE a <",      // missing rhs
		"SELECT count(*) FROM t WHERE 'x' = g",  // string on left
		"SELECT count(*) FROM t WHERE g < 'x'",  // ordered string compare
		"SELECT count(*) FROM t WHERE a IN (1)", // int IN list
		"SELECT count(*) FROM t GROUP BY",
		"SELECT count(*) FROM t ORDER BY g",
		"SELECT count(*) FROM t extra",
		"SELECT count(*) FROM t WHERE g = 'unterminated",
		"SELECT sum(a +) FROM t",
		"SELECT sum((a) FROM t",
		"SELECT count(*) AS FROM t",
		"SELECT count(*) FROM t WHERE a # 1",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	st, err := Parse("select G, Count(*) from T where A <= 3 group by G")
	if err != nil {
		t.Fatal(err)
	}
	// Identifiers keep their case; keywords do not.
	if st.Table != "T" || st.Query.GroupBy[0] != "G" {
		t.Fatalf("identifiers changed case: %q %v", st.Table, st.Query.GroupBy)
	}
}

// Parsed queries must run and match the equivalent hand-built query.
func TestParsedQueryExecutes(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "x", Type: table.Int64},
		{Name: "d", Type: table.Int64},
	}, table.WithSegmentRows(2000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6000; i++ {
		_ = tbl.AppendRow([]string{"p", "q", "r"}[rng.Intn(3)], rng.Int63n(100), rng.Int63n(10))
	}
	tbl.Flush()

	st, err := Parse(`SELECT g, count(*), sum(x * 2) AS dbl, min(x), max(x)
		FROM events WHERE d < 7 AND g <> 'r' GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Run(tbl, st.Query, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.RunNaive(tbl, st.Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || len(want.Rows) != 2 {
		t.Fatalf("rows=%d/%d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for a := range want.Rows[i].Stats {
			if got.Rows[i].Stats[a] != want.Rows[i].Stats[a] {
				t.Fatalf("row %d agg %d mismatch", i, a)
			}
		}
	}
	if got.AggNames[1] != "dbl" {
		t.Fatalf("alias lost: %v", got.AggNames)
	}
}

// A string predicate on a dictionary with more than 256 codes scans: its ids
// no longer fit the byte the pushed bitmap indexes, so it is a residual
// leaf at its own word — and the oracle compares strings, not ids. (Both
// sides used to panic unpacking 9-bit ids into bytes.)
func TestWideDictionaryStringPredicates(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "s", Type: table.String},
		{Name: "x", Type: table.Int64},
	}, table.WithSegmentRows(4000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 9000; i++ {
		_ = tbl.AppendRow(fmt.Sprintf("k%03d", rng.Intn(300)), rng.Int63n(100))
	}
	tbl.Flush()
	if col, _ := tbl.Segments()[0].StrCol("s"); col.Cardinality() <= 256 {
		t.Fatalf("dictionary has %d codes, want more than 256", col.Cardinality())
	}
	for _, where := range []string{
		"s = 'k001'",
		"s <> 'k001'",
		"s IN ('k001')",
		"s IN ('k001', 'k150', 'k299', 'absent')",
		"s NOT IN ('k001', 'k150')",
		"s = 'absent'",
		"s = 'k001' OR x < 5",
		"NOT (s = 'k001' OR s = 'k002') AND x < 50",
	} {
		st, err := Parse("SELECT count(*), sum(x) FROM t WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.RunNaive(tbl, st.Query)
		if err != nil {
			t.Fatalf("%s: oracle: %v", where, err)
		}
		for _, opts := range []engine.Options{{}, {DisableDictDomain: true}} {
			p, err := engine.Prepare(tbl, st.Query, opts)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			got, err := p.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if got.Format() != want.Format() {
				t.Errorf("%s:\n%s\noracle:\n%s", where, got.Format(), want.Format())
			}
		}
	}
}

// Statements render back to parseable SQL, and render∘parse is a fixpoint:
// re-parsing the rendering yields the identical rendering.
func TestRenderRoundTrip(t *testing.T) {
	sources := []string{
		"SELECT count(*) FROM t",
		"SELECT g, count(*), sum(x) FROM t GROUP BY g",
		"SELECT g, h, sum(a*(100-b)) AS net, avg(c), min(d), max(d) FROM t WHERE e <= 10 GROUP BY g, h",
		"SELECT count(*) FROM t WHERE a = 1 OR b = 2 AND NOT c <> 3",
		"SELECT count(*) FROM t WHERE g IN ('x', 'y''z') AND d NOT IN ('w')",
		"SELECT sum(-(a - 3) / 2) FROM t WHERE (a + 1) * 2 <= b",
		"SELECT count(*) FROM t WHERE s = 'single'",
	}
	for _, src := range sources {
		st1, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		r1 := st1.String()
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", r1, err)
		}
		r2 := st2.String()
		if r1 != r2 {
			t.Errorf("render not a fixpoint:\n 1: %s\n 2: %s", r1, r2)
		}
		// Structural equivalence of the queries.
		if st1.Table != st2.Table || len(st1.Query.Aggregates) != len(st2.Query.Aggregates) {
			t.Fatalf("structure changed for %q", src)
		}
		for i := range st1.Query.Aggregates {
			a1, a2 := st1.Query.Aggregates[i], st2.Query.Aggregates[i]
			if a1.Kind != a2.Kind {
				t.Fatalf("aggregate %d kind changed", i)
			}
			if a1.Arg != nil && a1.Arg.String() != a2.Arg.String() {
				t.Fatalf("aggregate %d arg changed: %s vs %s", i, a1.Arg, a2.Arg)
			}
		}
		if (st1.Query.Filter == nil) != (st2.Query.Filter == nil) {
			t.Fatal("filter presence changed")
		}
		if st1.Query.Filter != nil && st1.Query.Filter.String() != st2.Query.Filter.String() {
			t.Fatalf("filter changed: %s vs %s", st1.Query.Filter, st2.Query.Filter)
		}
	}
}

// HAVING and LIMIT parse, execute identically in both engines, and
// round-trip through the renderer.
func TestHavingAndLimit(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "x", Type: table.Int64},
	}, table.WithSegmentRows(1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		// Skewed group sizes so HAVING count(*) discriminates.
		g := "small"
		if rng.Intn(10) < 9 {
			g = []string{"big1", "big2"}[rng.Intn(2)]
		}
		_ = tbl.AppendRow(g, rng.Int63n(100))
	}
	tbl.Flush()

	st, err := Parse(`SELECT g, count(*), sum(x), avg(x)
		FROM t GROUP BY g HAVING count(*) >= 1000 AND avg(x) < 60`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Run(tbl, st.Query, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.RunNaive(tbl, st.Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows=%d/%d", len(got.Rows), len(want.Rows))
	}
	if len(got.Rows) != 2 {
		t.Fatalf("HAVING kept %d groups, want the two big ones", len(got.Rows))
	}
	for _, r := range got.Rows {
		if r.Stats[0].Count < 1000 {
			t.Fatalf("HAVING leak: %+v", r)
		}
		// avg(x) < 60 exactly: sum < 60*count.
		if r.Stats[1].Sum >= 60*r.Stats[0].Count {
			t.Fatalf("avg HAVING leak: %+v", r)
		}
	}

	// LIMIT caps sorted output.
	st2, err := Parse("SELECT g, count(*) FROM t GROUP BY g LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := engine.Run(tbl, st2.Query, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Rows) != 1 || got2.Rows[0].Keys[0] != "big1" {
		t.Fatalf("limit: %+v", got2.Rows)
	}

	// Round trip with HAVING and LIMIT.
	for _, src := range []string{
		"SELECT g, count(*), sum(x) FROM t GROUP BY g HAVING count(*) > 5 AND sum(x) <= 100 LIMIT 3",
		"SELECT count(*) FROM t HAVING count(*) <> 0",
		"SELECT g, min(x) FROM t GROUP BY g HAVING min(x) >= -5",
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		r1 := st.String()
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse %q: %v", r1, err)
		}
		if r2 := st2.String(); r1 != r2 {
			t.Fatalf("fixpoint:\n 1: %s\n 2: %s", r1, r2)
		}
	}
}

func TestHavingErrors(t *testing.T) {
	cases := []string{
		"SELECT count(*) FROM t HAVING sum(x) > 5", // not in select list
		"SELECT count(*) FROM t HAVING x > 5",      // bare column
		"SELECT count(*) FROM t HAVING count(*) >", // missing literal
		"SELECT count(*) FROM t HAVING count(*) 5", // missing operator
		"SELECT count(*) FROM t LIMIT 0",           // non-positive limit
		"SELECT count(*) FROM t LIMIT x",           // non-numeric limit
		"SELECT count(*) FROM t ORDER BY g",        // still rejected
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
}
