package table_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bipie/internal/table"
	"bipie/internal/tpch"
)

// columnFault is the value a column's work panics with in
// TestForEachColumnPanic.
type columnFault struct{ col int }

// TestForEachColumnPanic: a panic in one column's work reaches the caller
// with the value it was raised with, on one core and on four, and only
// after the other columns' work has finished. (Each recovered panic also
// prints its stack to standard error.)
func TestForEachColumnPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 4, 4, 4, 4} {
		runtime.GOMAXPROCS(procs)
		var started, finished atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			table.ForEachColumn(8, table.FanOutRows, func(i int) {
				if i == 5 {
					panic(columnFault{i})
				}
				started.Add(1)
				time.Sleep(time.Duration(1+i%3) * time.Millisecond)
				finished.Add(1)
			})
			return nil
		}()
		if got != (columnFault{5}) {
			t.Fatalf("GOMAXPROCS %d: recovered %#v, want columnFault{5}", procs, got)
		}
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("GOMAXPROCS %d: the panic reached the caller with %d of %d columns' work still running", procs, s-f, s)
		}
	}
}

// TestForEachColumnGoroutines: the fan-out starts goroutines only where it
// pays — with more than one core and FanOutRows rows a column or more —
// and otherwise runs every column on the caller.
func TestForEachColumnGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs, rows int
		fanOut      bool
	}{
		{1, table.FanOutRows, false},
		{4, table.FanOutRows - 1, false},
		{4, 1, false},
		{4, table.FanOutRows, true},
	} {
		runtime.GOMAXPROCS(c.procs)
		before := runtime.NumGoroutine()
		var more atomic.Bool
		table.ForEachColumn(8, c.rows, func(int) {
			if runtime.NumGoroutine() > before {
				more.Store(true)
			}
			time.Sleep(time.Millisecond)
		})
		if more.Load() != c.fanOut {
			t.Errorf("GOMAXPROCS %d, %d rows: more goroutines than the %d before during the columns' work: %v", c.procs, c.rows, before, more.Load())
		}
	}
}

// slice is rows [lo, hi) of every column of c.
func (c columns) slice(lo, hi int) columns {
	s := columns{ints: map[string][]int64{}, strs: map[string][]string{}}
	for name, col := range c.ints {
		s.ints[name] = col[lo:hi]
	}
	for name, col := range c.strs {
		s.strs[name] = col[lo:hi]
	}
	return s
}

// appendRows appends rows [lo, hi) of src to tbl, in one AppendColumns call
// or, byRow, one AppendRow call a row.
func appendRows(t *testing.T, tbl *table.Table, src columns, lo, hi int, byRow bool) {
	t.Helper()
	if !byRow {
		part := src.slice(lo, hi)
		if err := tbl.AppendColumns(part.ints, part.strs); err != nil {
			t.Fatal(err)
		}
		return
	}
	row := make([]any, len(tbl.Schema()))
	for r := lo; r < hi; r++ {
		for i, c := range tbl.Schema() {
			if c.Type == table.Int64 {
				row[i] = src.ints[c.Name][r]
			} else {
				row[i] = src.strs[c.Name][r]
			}
		}
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealSameAcrossProcs: the columns of a segment are encoded in parallel
// but added in schema order, so a table sealed on one core and on four
// writes the same bytes — for bulk appends into segments of 100 rows, 4096
// rows and the default size, and for a region built row by row. (Chunks
// of 100 rows stay below FanOutRows, so that case runs serially on both.)
func TestSealSameAcrossProcs(t *testing.T) {
	const rows = 10000
	src := lineitem(t, rows, 5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name  string
		opts  []table.Option
		byRow bool
	}{
		{"AppendColumns, segments of 100", []table.Option{table.WithSegmentRows(100)}, false},
		{"AppendColumns, segments of 4096", []table.Option{table.WithSegmentRows(4096)}, false},
		{"AppendColumns, default segments", nil, false},
		{"AppendRow, segments of 4096", []table.Option{table.WithSegmentRows(4096)}, true},
	} {
		var raw [2][]byte
		for k, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			tbl, err := table.New(tpch.Schema(), c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			appendRows(t, tbl, src, 0, rows, c.byRow)
			tbl.Flush()
			if got := contents(t, tbl); !reflect.DeepEqual(got, src) {
				t.Fatalf("%s, GOMAXPROCS %d: the table differs from what it appended", c.name, procs)
			}
			raw[k] = serialized(t, tbl)
		}
		if !bytes.Equal(raw[0], raw[1]) {
			t.Errorf("%s: %d bytes written on one core, %d different ones on four", c.name, len(raw[0]), len(raw[1]))
		}
	}
}

// TestMutableSnapshotMidAppend: after every append — bulk or row by row,
// short of a seal, onto one and past it — the sealed segments and the
// snapshot of the mutable region decode to exactly the rows appended, on
// one core and on four. The regions snapshotted hold from 1 to 8485 rows,
// so snapshots below and above FanOutRows both occur.
func TestMutableSnapshotMidAppend(t *testing.T) {
	const segRows = 16384
	steps := []struct {
		rows  int
		byRow bool
	}{{1, false}, {5000, false}, {11383, false}, {37, true}, {20000, false}, {500, true}, {4332, false}}
	rows := 0
	for _, s := range steps {
		rows += s.rows
	}
	src := lineitem(t, rows, 6)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		tbl, err := table.New(tpch.Schema(), table.WithSegmentRows(segRows))
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for _, s := range steps {
			appendRows(t, tbl, src, done, done+s.rows, s.byRow)
			done += s.rows
			got := contents(t, tbl)
			snap := tbl.MutableSegment()
			if snap != nil {
				if err := got.appendSegment(tbl.Schema(), snap); err != nil {
					t.Fatal(err)
				}
			}
			if (snap == nil) != (done%segRows == 0) {
				t.Fatalf("GOMAXPROCS %d, %d rows: snapshot %v with %d mutable rows", procs, done, snap, tbl.MutableRows())
			}
			if !reflect.DeepEqual(got, src.slice(0, done)) {
				t.Fatalf("GOMAXPROCS %d: after %d rows, segments and snapshot differ from what was appended", procs, done)
			}
		}
	}
}
