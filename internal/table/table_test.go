package table

import "testing"

func demoSchema() Schema {
	return Schema{
		{Name: "g", Type: String},
		{Name: "x", Type: Int64},
		{Name: "y", Type: Int64},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Schema{{Name: "", Type: Int64}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New(Schema{{Name: "a", Type: Int64}, {Name: "a", Type: String}}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := New(demoSchema(), WithSegmentRows(0)); err == nil {
		t.Fatal("zero segment rows accepted")
	}
}

func TestAppendRowAndFlush(t *testing.T) {
	tbl, err := New(demoSchema(), WithSegmentRows(100))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		if err := tbl.AppendRow([]string{"a", "b"}[i%2], int64(i), int64(-i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.Segments()) != 2 {
		t.Fatalf("segments=%d before flush", len(tbl.Segments()))
	}
	if tbl.MutableRows() != 50 {
		t.Fatalf("mutable=%d", tbl.MutableRows())
	}
	if tbl.Rows() != 250 {
		t.Fatalf("rows=%d", tbl.Rows())
	}
	tbl.Flush()
	if len(tbl.Segments()) != 3 || tbl.MutableRows() != 0 {
		t.Fatal("flush did not seal tail")
	}
	// Verify data round-trips through encodings.
	seg := tbl.Segments()[0]
	x, err := seg.IntCol("x")
	if err != nil {
		t.Fatal(err)
	}
	if x.Get(42) != 42 {
		t.Fatalf("x[42]=%d", x.Get(42))
	}
	g, err := seg.StrCol("g")
	if err != nil {
		t.Fatal(err)
	}
	if g.Get(3) != "b" {
		t.Fatalf("g[3]=%q", g.Get(3))
	}
}

func TestAppendColumns(t *testing.T) {
	tbl, _ := New(demoSchema(), WithSegmentRows(1000))
	n := 2500
	ints := map[string][]int64{"x": make([]int64, n), "y": make([]int64, n)}
	strs := map[string][]string{"g": make([]string, n)}
	for i := 0; i < n; i++ {
		ints["x"][i] = int64(i)
		ints["y"][i] = int64(i * 2)
		strs["g"][i] = "k"
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	if len(tbl.Segments()) != 3 {
		t.Fatalf("segments=%d", len(tbl.Segments()))
	}
	// Row order must be preserved across segment boundaries.
	total := 0
	want := int64(0)
	for _, seg := range tbl.Segments() {
		x, _ := seg.IntCol("x")
		for i := 0; i < seg.Rows(); i++ {
			if x.Get(i) != want {
				t.Fatalf("row %d: %d", total, x.Get(i))
			}
			want++
			total++
		}
	}
	if total != n {
		t.Fatalf("total=%d", total)
	}
}

func TestAppendColumnsErrors(t *testing.T) {
	tbl, _ := New(demoSchema())
	err := tbl.AppendColumns(map[string][]int64{"x": {1}}, map[string][]string{"g": {"a"}})
	if err == nil {
		t.Fatal("missing column accepted")
	}
	err = tbl.AppendColumns(
		map[string][]int64{"x": {1, 2}, "y": {1}},
		map[string][]string{"g": {"a", "b"}},
	)
	if err == nil {
		t.Fatal("ragged columns accepted")
	}
	if err := tbl.AppendColumns(map[string][]int64{"x": {}, "y": {}}, map[string][]string{"g": {}}); err != nil {
		t.Fatalf("empty append: %v", err)
	}
}

func TestDelete(t *testing.T) {
	tbl, _ := New(demoSchema(), WithSegmentRows(10))
	for i := 0; i < 25; i++ {
		_ = tbl.AppendRow("a", int64(i), int64(0))
	}
	// Row 13 lives in segment 1 at offset 3.
	if err := tbl.Delete(13); err != nil {
		t.Fatal(err)
	}
	if !tbl.Segments()[1].IsDeleted(3) {
		t.Fatal("delete did not land")
	}
	if err := tbl.Delete(21); err == nil {
		t.Fatal("mutable-region delete accepted")
	}
	if err := tbl.Delete(-1); err == nil {
		t.Fatal("negative delete accepted")
	}
	tbl.Flush()
	if err := tbl.Delete(21); err != nil {
		t.Fatalf("post-flush delete: %v", err)
	}
}

func TestColumnLookups(t *testing.T) {
	tbl, _ := New(demoSchema())
	if !tbl.HasColumn("g", String) || tbl.HasColumn("g", Int64) || tbl.HasColumn("zz", Int64) {
		t.Fatal("HasColumn")
	}
}
