package table_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/table"
)

// countSum checks what a query sees of tbl: every row in group "k", n rows
// whose x sums to sum.
func countSum(t *testing.T, label string, tbl *table.Table, n, sum int64) {
	t.Helper()
	res, err := engine.Run(tbl, &engine.Query{
		GroupBy:    []string{"g"},
		Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("x"))},
	}, engine.Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Keys[0] != "k" || res.Rows[0].Stats[0].Count != n || res.Rows[0].Stats[1].Sum != sum {
		t.Fatalf("%s: %+v, want one group k with count %d, sum %d", label, res.Rows, n, sum)
	}
}

// TestAppendRowTypeErrors: a rejected row leaves the table as it was, even
// when the columns before the bad value took theirs — the region, the
// snapshot a query scans, the sealed segment and the serialized table all
// hold the accepted rows only.
func TestAppendRowTypeErrors(t *testing.T) {
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "x", Type: table.Int64},
		{Name: "y", Type: table.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		row  []any
		want string
	}{
		{[]any{"k", int64(1)}, "values"},
		{[]any{1, int64(1), int64(2)}, `"g"`},
		{[]any{"k", "oops", int64(2)}, `"x"`},
		{[]any{"k", int64(1), 2}, `"y"`},
	}
	var n, sum int64
	for i, b := range bad {
		if err := tbl.AppendRow("k", int64(i+1), int64(-i)); err != nil {
			t.Fatal(err)
		}
		n, sum = n+1, sum+int64(i+1)
		if err := tbl.AppendRow(b.row...); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Fatalf("row %v: error %v, want one naming %s", b.row, err, b.want)
		}
		if tbl.Rows() != int(n) {
			t.Fatalf("row %v: %d rows after the rejection, want %d", b.row, tbl.Rows(), n)
		}
		countSum(t, "mutable region", tbl, n, sum)
		tbl.Flush()
		countSum(t, "flushed", tbl, n, sum)
		var buf bytes.Buffer
		if _, err := tbl.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := table.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		countSum(t, "loaded", loaded, n, sum)
	}
}

// TestAppendColumnsAllocs: the mutable region keeps string columns as
// dictionary ids, so a bulk append allocates about four bytes a row per
// string column, not a copied 16-byte string header.
func TestAppendColumnsAllocs(t *testing.T) {
	const rows = 1 << 16
	tbl, err := table.New(table.Schema{{Name: "flag", Type: table.String}, {Name: "key", Type: table.String}})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 300) // past the scanned table and the byte
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	flag, key := make([]string, rows), make([]string, rows)
	for i := range flag {
		flag[i], key[i] = []string{"R", "A", "N"}[i%3], keys[i*7%len(keys)]
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = tbl.AppendColumns(nil, map[string][]string{"flag": flag, "key": key})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
	t.Logf("AppendColumns: %.2f B a row", perRow)
	if perRow > 10 {
		t.Fatalf("AppendColumns allocated %.1f B a row over two string columns, want at most 10", perRow)
	}
}

// TestAppendRowAllocs: a row of pre-boxed values appends without
// allocating, past the dictionary's scanned table too.
func TestAppendRowAllocs(t *testing.T) {
	tbl, err := table.New(table.Schema{{Name: "g", Type: table.String}, {Name: "x", Type: table.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 16)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("v%02d", i), int64(i)}
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if err := tbl.AppendRow(rows[i%len(rows)]...); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("AppendRow allocates %v times a row", n)
	}
}
