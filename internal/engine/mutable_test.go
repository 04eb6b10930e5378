package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bipie/internal/expr"
	"bipie/internal/table"
)

// Queries must see the mutable region without an explicit Flush, in both
// engines, and the encoded snapshot must be reused until the next write.
func TestMutableRegionVisible(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(120))
	var wantCount, wantSum int64
	for i := 0; i < 2500; i++ { // 2 sealed segments + 500 mutable rows
		v := rng.Int63n(100)
		_ = tbl.AppendRow("k", v)
		if v < 50 {
			wantCount++
			wantSum += v
		}
	}
	if tbl.MutableRows() != 500 {
		t.Fatalf("mutable=%d", tbl.MutableRows())
	}
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))},
		Filter:     expr.Lt(expr.Col("v"), expr.Int(50)),
	}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0].Stats[0].Count != wantCount || got.Rows[0].Stats[1].Sum != wantSum {
		t.Fatalf("fused: %+v want count=%d sum=%d", got.Rows[0].Stats, wantCount, wantSum)
	}
	naive, err := RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "mutable naive", got, naive)

	// Snapshot caching: two reads, same segment; a write invalidates.
	s1 := tbl.MutableSegment()
	s2 := tbl.MutableSegment()
	if s1 != s2 {
		t.Fatal("snapshot not cached")
	}
	_ = tbl.AppendRow("k", int64(1))
	if s3 := tbl.MutableSegment(); s3 == s1 {
		t.Fatal("snapshot not invalidated by write")
	}

	// Flushing must not change query results.
	before, _ := Run(tbl, q, Options{})
	tbl.Flush()
	after, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "flush-invariant", after, before)
}

// The mutable region interns strings as they arrive; queries between
// appends — AppendRow and AppendColumns mixed, seals landing mid-chunk,
// dictionaries growing past the scanned table and past 256 entries — see
// exactly the rows written so far, in both engines.
func TestMutableRegionBetweenAppends(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "f", Type: table.String},
		{Name: "v", Type: table.Int64},
	}, table.WithSegmentRows(700))
	if err != nil {
		t.Fatal(err)
	}
	picked := []string{"g000", "g007", "g050", "g199", "g300", "missing"}
	queries := []*Query{
		{GroupBy: []string{"f"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))}},
		{GroupBy: []string{"f"}, Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("v"))}, Filter: expr.StrInSet("g", picked...)},
	}
	type cell struct{ count, sum int64 }
	want := []map[string]cell{{}, {}}
	rng := rand.New(rand.NewSource(30))
	for step, rows := 0, 0; rows < 3000; step++ {
		n := 1 + rng.Intn(400)
		if step%2 == 0 {
			n = 1 + rng.Intn(5)
		}
		g, f, v := make([]string, n), make([]string, n), make([]int64, n)
		for i := range g {
			// The number of distinct g values grows with the table.
			g[i] = fmt.Sprintf("g%03d", rng.Intn(1+rows/8))
			f[i] = []string{"R", "A", "N"}[rng.Intn(3)]
			v[i] = rng.Int63n(1000)
			for k, m := range want {
				if k == 0 || slices.Contains(picked, g[i]) {
					m[f[i]] = cell{m[f[i]].count + 1, m[f[i]].sum + v[i]}
				}
			}
		}
		if step%2 == 0 {
			for i := range g {
				if err := tbl.AppendRow(g[i], f[i], v[i]); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := tbl.AppendColumns(map[string][]int64{"v": v}, map[string][]string{"g": g, "f": f}); err != nil {
			t.Fatal(err)
		}
		rows += n
		for k, q := range queries {
			got, err := Run(tbl, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want[k]) {
				t.Fatalf("query %d after %d rows: %d groups, want %d", k, rows, len(got.Rows), len(want[k]))
			}
			for _, r := range got.Rows {
				if c := want[k][r.Keys[0]]; r.Stats[0].Count != c.count || r.Stats[1].Sum != c.sum {
					t.Fatalf("query %d after %d rows: group %v has count %d sum %d, want %d, %d", k, rows, r.Keys, r.Stats[0].Count, r.Stats[1].Sum, c.count, c.sum)
				}
			}
			naive, err := RunNaive(tbl, q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "between appends", got, naive)
		}
	}
}

func TestMutableOnlyTable(t *testing.T) {
	tbl, _ := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "v", Type: table.Int64},
	})
	for i := 0; i < 100; i++ {
		_ = tbl.AppendRow([]string{"a", "b"}[i%2], int64(i))
	}
	// No Flush at all: everything lives in the mutable region.
	q := &Query{GroupBy: []string{"g"}, Aggregates: []Aggregate{CountStar()}}
	got, err := Run(tbl, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[0].Stats[0].Count != 50 {
		t.Fatalf("rows=%+v", got.Rows)
	}
}
