package table_test

import (
	"bytes"
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

// TestWriteToMatchesTrialEncodedTable: a TPC-H table written through
// AppendColumns/Flush serializes to the same bytes as one whose segments
// were assembled column by column from the trial-encode chooser — the same
// encoding picked for every column of every segment, the same words
// written. (internal/encoding holds each constructor to an oracle that
// shares no code with it; this is the whole write path on real column
// shapes, the short last segment included.)
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
}
