package table_test

import (
	"bytes"
	"math/rand"
	"testing"

	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// trialChoose is the chooser the write path had before it sized encodings
// from one statistics pass: build all three, keep the smallest, ties to bit
// packing, then RLE, then delta.
func trialChoose(values []int64) encoding.IntColumn {
	var best encoding.IntColumn = encoding.NewBitPack(values)
	for _, c := range []encoding.IntColumn{encoding.NewRLE(values), encoding.NewDelta(values)} {
		if c.SizeBytes() < best.SizeBytes() {
			best = c
		}
	}
	return best
}

// tableColumns decodes every column of a flushed table.
func tableColumns(t *testing.T, tbl *table.Table) (map[string][]int64, map[string][]string) {
	t.Helper()
	ints, strs := map[string][]int64{}, map[string][]string{}
	for _, seg := range tbl.Segments() {
		for _, c := range tbl.Schema() {
			if c.Type == table.Int64 {
				col, err := seg.IntCol(c.Name)
				if err != nil {
					t.Fatal(err)
				}
				ints[c.Name] = append(ints[c.Name], encoding.DecodeAll(col)...)
				continue
			}
			col, err := seg.StrCol(c.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < col.Len(); i++ {
				strs[c.Name] = append(strs[c.Name], col.Get(i))
			}
		}
	}
	return ints, strs
}

// appendMixed writes n rows of ints and strs into tbl through AppendRow and
// AppendColumns in random chunks, some longer than segRows so a seal lands
// mid-chunk, and takes a mutable-region snapshot now and then, as a reader
// between writes would.
func appendMixed(t *testing.T, tbl *table.Table, ints map[string][]int64, strs map[string][]string, n, segRows int, rng *rand.Rand) {
	t.Helper()
	for done := 0; done < n; {
		if rng.Intn(2) == 0 {
			for k := min(1+rng.Intn(20), n-done); k > 0; k-- {
				row := make([]any, 0, len(tbl.Schema()))
				for _, c := range tbl.Schema() {
					if c.Type == table.Int64 {
						row = append(row, ints[c.Name][done])
					} else {
						row = append(row, strs[c.Name][done])
					}
				}
				if err := tbl.AppendRow(row...); err != nil {
					t.Fatal(err)
				}
				done++
			}
		} else {
			k := min(rng.Intn(segRows*3/2+1), n-done)
			ci, cs := map[string][]int64{}, map[string][]string{}
			for name, col := range ints {
				ci[name] = col[done : done+k]
			}
			for name, col := range strs {
				cs[name] = col[done : done+k]
			}
			if err := tbl.AppendColumns(ci, cs); err != nil {
				t.Fatal(err)
			}
			done += k
		}
		if rng.Intn(4) == 0 {
			if ms := tbl.MutableSegment(); ms != nil && ms.Rows() != tbl.MutableRows() {
				t.Fatalf("snapshot has %d rows, region %d", ms.Rows(), tbl.MutableRows())
			}
		}
	}
}

// TestWriteToMatchesTrialEncodedTable: a TPC-H table written through
// AppendColumns/Flush serializes to the same bytes as one whose segments
// were assembled column by column from the trial-encode chooser — the same
// encoding picked for every column of every segment, the same words
// written — and so does the same table written through AppendRow and
// AppendColumns mixed, in chunks that cross segment boundaries.
// (internal/encoding holds each constructor to an oracle that shares no
// code with it; this is the whole write path on real column shapes, the
// short last segment included.)
func TestWriteToMatchesTrialEncodedTable(t *testing.T) {
	const segRows = 3*encoding.ZoneRows + 100
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: 2*segRows + 1234, Seed: 24, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := table.New(tpch.Schema(), table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[encoding.Kind]bool{}
	for _, seg := range tbl.Segments() {
		built := colstore.NewSegment(seg.Rows())
		for _, c := range tbl.Schema() {
			if c.Type == table.Int64 {
				col, err := seg.IntCol(c.Name)
				if err != nil {
					t.Fatal(err)
				}
				kinds[col.Kind()] = true
				err = built.AddInt(c.Name, trialChoose(encoding.DecodeAll(col)))
				if err != nil {
					t.Fatal(err)
				}
				continue
			}
			col, err := seg.StrCol(c.Name)
			if err != nil {
				t.Fatal(err)
			}
			strs := make([]string, col.Len())
			for i := range strs {
				strs[i] = col.Get(i)
			}
			if err := built.AddString(c.Name, encoding.NewDict(strs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := table.AdoptSegment(oracle, built); err != nil {
			t.Fatal(err)
		}
	}
	if !kinds[encoding.KindBitPack] || !kinds[encoding.KindDelta] {
		t.Fatalf("lineitem no longer exercises bit packing and delta: %v", kinds)
	}
	var got, want bytes.Buffer
	if _, err := tbl.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("table serializes to %d bytes, trial-encoded table to %d, and they differ", got.Len(), want.Len())
	}

	mixed, err := table.New(tpch.Schema(), table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	ints, strs := tableColumns(t, tbl)
	appendMixed(t, mixed, ints, strs, tbl.Rows(), segRows, rand.New(rand.NewSource(30)))
	mixed.Flush()
	var m bytes.Buffer
	if _, err := mixed.WriteTo(&m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Bytes(), want.Bytes()) {
		t.Fatalf("table appended in mixed chunks serializes to %d bytes, trial-encoded table to %d, and they differ", m.Len(), want.Len())
	}
}
