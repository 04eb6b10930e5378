package table_test

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"sync"
	"testing"

	"bipie/internal/encoding"
	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// columns is a table's content in column-major form, as AppendColumns takes
// it.
type columns struct {
	ints map[string][]int64
	strs map[string][]string
}

// decode decodes every column of tbl's sealed segments.
func decode(tbl *table.Table) (columns, error) {
	c := columns{ints: map[string][]int64{}, strs: map[string][]string{}}
	for _, col := range tbl.Schema() {
		for _, seg := range tbl.Segments() {
			if col.Type == table.Int64 {
				ic, err := seg.IntCol(col.Name)
				if err != nil {
					return c, err
				}
				c.ints[col.Name] = append(c.ints[col.Name], encoding.DecodeAll(ic)...)
				continue
			}
			sc, err := seg.StrCol(col.Name)
			if err != nil {
				return c, err
			}
			for i := range sc.Len() {
				c.strs[col.Name] = append(c.strs[col.Name], sc.Get(i))
			}
		}
	}
	return c, nil
}

// contents is decode, failing t on an error.
func contents(t testing.TB, tbl *table.Table) columns {
	t.Helper()
	c, err := decode(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lineitem is n generated lineitem rows as plain columns.
func lineitem(t testing.TB, n int, seed int64) columns {
	t.Helper()
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return contents(t, tbl)
}

// ingestOp is the ingest op: New, AppendColumns, Flush, WriteTo into buf
// (emptied first) and Load. It returns the flushed and the loaded table.
func ingestOp(buf *bytes.Buffer, src columns, opts ...table.Option) (*table.Table, *table.Table, error) {
	tbl, err := table.New(tpch.Schema(), opts...)
	if err != nil {
		return nil, nil, err
	}
	if err := tbl.AppendColumns(src.ints, src.strs); err != nil {
		return nil, nil, err
	}
	tbl.Flush()
	buf.Reset()
	if _, err := tbl.WriteTo(buf); err != nil {
		return nil, nil, err
	}
	loaded, err := table.Load(bytes.NewReader(buf.Bytes()))
	return tbl, loaded, err
}

// roundTrip is ingestOp, failing t on an error.
func roundTrip(t testing.TB, buf *bytes.Buffer, src columns, opts ...table.Option) (*table.Table, *table.Table) {
	t.Helper()
	flushed, loaded, err := ingestOp(buf, src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return flushed, loaded
}

// byFlag is the naive engine's Q1-like answer over tbl.
func byFlag(t testing.TB, tbl *table.Table) *engine.Result {
	t.Helper()
	res, err := engine.RunNaive(tbl, &engine.Query{
		GroupBy: []string{tpch.ColReturnFlag, tpch.ColLineStatus},
		Aggregates: []engine.Aggregate{
			engine.CountStar(), engine.SumOf(expr.Col(tpch.ColQuantity)),
			engine.SumOf(expr.Col(tpch.ColExtendedPrice)), engine.SumOf(expr.Col(tpch.ColOrderKey)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecycledBuffersLeaveEarlierTablesAlone: a table built, written and
// loaded, and a snapshot of a mutable region since sealed, are unchanged
// after a second table with other values and the same shapes went through
// every buffer the first ones gave back — mutable ints, dictionary ids, the
// WriteTo and Load buffers.
func TestRecycledBuffersLeaveEarlierTablesAlone(t *testing.T) {
	const rows, segRows = 20000, 8192 // three seals a table
	srcA, srcB := lineitem(t, rows, 1), lineitem(t, rows, 2)
	if reflect.DeepEqual(srcA, srcB) {
		t.Fatal("both seeds generated the same columns")
	}
	var bufA, bufB bytes.Buffer
	flushed, loaded := roundTrip(t, &bufA, srcA, table.WithSegmentRows(segRows))
	raw := bufA.Bytes()
	digest := sha256.Sum256(raw)
	answer := byFlag(t, flushed)

	// A mutable snapshot, scanned after its region was sealed.
	partial, err := table.New(tpch.Schema(), table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	half := columns{ints: map[string][]int64{}, strs: map[string][]string{}}
	for name, col := range srcA.ints {
		half.ints[name] = col[:segRows/2]
	}
	for name, col := range srcA.strs {
		half.strs[name] = col[:segRows/2]
	}
	if err := partial.AppendColumns(half.ints, half.strs); err != nil {
		t.Fatal(err)
	}
	snap := partial.MutableSegment()
	partial.Flush()

	roundTrip(t, &bufB, srcB, table.WithSegmentRows(segRows))
	roundTrip(t, &bufB, srcB, table.WithSegmentRows(segRows))

	for _, c := range []struct {
		name string
		tbl  *table.Table
	}{{"flushed", flushed}, {"loaded", loaded}} {
		if got := contents(t, c.tbl); !reflect.DeepEqual(got, srcA) {
			t.Errorf("%s table changed after another table reused its buffers", c.name)
		}
		if got := byFlag(t, c.tbl); !reflect.DeepEqual(got.Rows, answer.Rows) {
			t.Errorf("%s table answers %+v, answered %+v", c.name, got.Rows, answer.Rows)
		}
		if got := sha256.Sum256(serialized(t, c.tbl)); got != digest {
			t.Errorf("%s table writes bytes hashing to %x, wrote %x", c.name, got, digest)
		}
	}
	if got := sha256.Sum256(raw); got != digest {
		t.Error("the bytes WriteTo wrote changed")
	}
	for name, want := range half.ints {
		col, err := snap.IntCol(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := encoding.DecodeAll(col); !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot column %s changed after its region was sealed", name)
		}
	}
	for name, want := range half.strs {
		col, err := snap.StrCol(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want {
			if col.Get(i) != v {
				t.Fatalf("snapshot column %s row %d: %q, appended %q", name, i, col.Get(i), v)
			}
		}
	}
}

// TestConcurrentRoundTrips: goroutines taking their own tables through the
// write path at once, every buffer from the same pools, each get back
// exactly what it appended. A buffer recycled while its table still reads
// it shows here as another goroutine's values (or, under -race, as a race).
func TestConcurrentRoundTrips(t *testing.T) {
	const workers, rounds, rows, segRows = 4, 6, 5000, 1024
	var wg sync.WaitGroup
	for w := range workers {
		src := lineitem(t, rows, int64(100+w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for r := range rounds {
				flushed, loaded, err := ingestOp(&buf, src, table.WithSegmentRows(segRows))
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				for _, tbl := range []*table.Table{flushed, loaded} {
					if got, err := decode(tbl); err != nil || !reflect.DeepEqual(got, src) {
						t.Errorf("worker %d round %d: the table differs from what it appended (%v)", w, r, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSecondRoundTripAllocatesWhatItKeeps: once a process has run the
// ingest op on a 131 072-row lineitem, the next op allocates little beyond
// the two tables it keeps — the flushed one and the loaded one. Without
// recycling the mutable columns, dictionary ids and codec buffers it
// allocated about six times that.
func TestSecondRoundTripAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what it is given")
	}
	src := lineitem(t, 131072, 7)
	var buf bytes.Buffer // the caller's, reused as the benchmark's ingest op does
	var kept int
	op := func() {
		flushed, loaded := roundTrip(t, &buf, src)
		kept = decodedBytes(flushed) + decodedBytes(loaded)
	}
	op()
	got := allocated(op)
	t.Logf("second round trip allocated %d B, the tables keep %d B", got, kept)
	if bound := 1.3 * float64(kept); float64(got) > bound {
		t.Fatalf("a second round trip allocated %d B, bound %.0f (1.3 × the %d B its tables keep)", got, bound, kept)
	}
}

// TestSegmentSizedBuffers: a table with small segments takes no recycled
// buffer larger than its segment, even from pools holding larger ones, and
// a flushed table holds no mutable storage.
func TestSegmentSizedBuffers(t *testing.T) {
	big := lineitem(t, 4096, 3)
	roundTrip(t, new(bytes.Buffer), big) // leaves 4096-value buffers in the pools
	small := columns{ints: map[string][]int64{}, strs: map[string][]string{}}
	for name, col := range big.ints {
		small.ints[name] = col[:300]
	}
	for name, col := range big.strs {
		small.strs[name] = col[:300]
	}
	for _, segRows := range []int{100, 300, 1000} {
		tbl, err := table.New(tpch.Schema(), table.WithSegmentRows(segRows))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AppendColumns(small.ints, small.strs); err != nil {
			t.Fatal(err)
		}
		if got := table.MutableCap(tbl); got > segRows {
			t.Errorf("segments of %d rows: a mutable column holds room for %d values", segRows, got)
		}
		tbl.Flush()
		if got := table.MutableCap(tbl); got != 0 {
			t.Errorf("segments of %d rows: a flushed table holds room for %d values", segRows, got)
		}
		if got := contents(t, tbl); !reflect.DeepEqual(got, small) {
			t.Errorf("segments of %d rows: the table differs from what it appended", segRows)
		}
	}
	tbl, err := table.New(tpch.Schema(), table.WithSegmentRows(100))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 250 {
		if err := tbl.AppendRow(int64(i), int64(i), int64(i), int64(i), int64(i), "R", "F", int64(i)); err != nil {
			t.Fatal(err)
		}
		if got := table.MutableCap(tbl); got > 100 {
			t.Fatalf("after %d rows a mutable column holds room for %d values, over one 100-row segment", i+1, got)
		}
	}
}
