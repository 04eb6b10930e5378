package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/sel"
	"bipie/internal/table"
)

// TestGroupMapFusedBlend holds mapBatch — word-wide column combine with the
// special-group blend fused into the last column's pass — byte-identical to
// the per-row definition, for single-, two- and three-column mappers over
// dictionary and integer columns, batch offsets and lengths that are not
// multiples of eight, with and without a selection vector. Then it holds
// the filter pass that maps the groups itself (fusedFilter) to the compare,
// count and blended mapBatch it replaces, on Q1's widths over the whole
// batch.
func TestGroupMapFusedBlend(t *testing.T) {
	const rows = 4096
	rng := rand.New(rand.NewSource(181))
	tbl, err := table.New(table.Schema{
		{Name: "s3", Type: table.String},
		{Name: "s2", Type: table.String},
		{Name: "i7", Type: table.Int64},
		{Name: "i6", Type: table.Int64},
		{Name: "d", Type: table.Int64},
	}, table.WithSegmentRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	ints := map[string][]int64{"i7": make([]int64, rows), "i6": make([]int64, rows), "d": make([]int64, rows)}
	strs := map[string][]string{"s3": make([]string, rows), "s2": make([]string, rows)}
	for i := 0; i < rows; i++ {
		strs["s3"][i] = fmt.Sprint("k", rng.Intn(3))
		strs["s2"][i] = fmt.Sprint("k", rng.Intn(2))
		ints["i7"][i] = 40 + rng.Int63n(7)
		ints["i6"][i] = -3 + rng.Int63n(6)
		ints["d"][i] = rng.Int63n(1 << 12)
	}
	// Pin every domain's ends so the cardinalities and widths are exact.
	ints["i7"][0], ints["i7"][1], ints["i6"][0], ints["i6"][1] = 40, 46, -3, 2
	ints["d"][0], ints["d"][1] = 0, 1<<12-1
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	seg := tbl.Segments()[0]

	selVec := sel.NewByteVec(rows)
	for i := range selVec {
		if rng.Intn(3) > 0 {
			selVec[i] = sel.Selected
		}
	}
	for _, groupBy := range [][]string{
		{}, {"s3"}, {"i7"}, {"s3", "s2"}, {"i7", "s3"}, {"s3", "s2", "i7"}, {"i6", "i7", "s3"}, // 6·7·3 = 126 groups
	} {
		m, err := newGroupMapper(seg, groupBy)
		if err != nil {
			t.Fatal(err)
		}
		sc := m.newScratch()
		// The per-row definition, one column at a time.
		want := make([]uint8, rows)
		col := make([]uint8, rows)
		for c := range m.cols {
			m.colIDs(&sc, c, 0, rows, col)
			for i := range want {
				want[i] = want[i]*uint8(m.cols[c].card) + col[i]
			}
		}
		special := uint8(m.groups())
		got := make([]uint8, rows)
		for _, span := range []struct{ start, n int }{{0, rows}, {0, 0}, {0, 1}, {5, 7}, {64, 8}, {3, 9}, {1000, 1001}, {rows - 13, 13}} {
			m.mapBatch(&sc, span.start, span.n, got, nil, 0)
			for i := 0; i < span.n; i++ {
				if got[i] != want[span.start+i] {
					t.Fatalf("group by %v rows [%d,+%d): row %d maps to %d, want %d", groupBy, span.start, span.n, i, got[i], want[span.start+i])
				}
			}
			m.mapBatch(&sc, span.start, span.n, got, selVec[:span.n], special)
			for i := 0; i < span.n; i++ {
				w := want[span.start+i]
				if selVec[i] == 0 {
					w = special
				}
				if got[i] != w {
					t.Fatalf("group by %v rows [%d,+%d) blended: row %d maps to %d, want %d", groupBy, span.start, span.n, i, got[i], w)
				}
			}
		}
		if n := testing.AllocsPerRun(20, func() { m.mapBatch(&sc, 3, 1001, got, selVec[:1001], special) }); n != 0 {
			t.Errorf("group by %v: mapBatch allocates %v times per batch", groupBy, n)
		}
	}

	date, err := seg.IntCol("d")
	if err != nil {
		t.Fatal(err)
	}
	dates := date.(*encoding.BitPackColumn)
	m, err := newGroupMapper(seg, []string{"s3", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.newScratch()
	special := uint8(m.groups())
	f := &fusedFilter{pred: &bitpackPred{bp: dates, op: pushLE, packed: true}, hi: m.packedIDs(0), lo: m.packedIDs(1), special: special}
	if !bitpack.GroupsKernel(dates.Width(), f.hi.Bits(), f.lo.Bits(), uint8(m.cols[1].card)) {
		t.Fatalf("widths %d/%d/%d: not the fused pass's shape", dates.Width(), f.hi.Bits(), f.lo.Bits())
	}
	mask, groups := sel.NewByteVec(rows), make([]uint8, rows)
	want, wantMask := make([]uint8, rows), sel.NewByteVec(rows)
	for _, thr := range []uint64{0, 2000, 1<<12 - 1} {
		f.pred.threshold = thr
		dates.Packed().CmpLEPacked(wantMask, 0, thr, false)
		kept := wantMask.CountSelected()
		m.mapBatch(&sc, 0, rows, want, wantMask, special)
		if got := f.eval(colstore.Batch{N: rows}, mask, groups); got != kept {
			t.Fatalf("t %d: fused pass keeps %d rows, the mask %d", thr, got, kept)
		}
		for i := range groups {
			if groups[i] != want[i] || mask[i] != wantMask[i] {
				t.Fatalf("t %d: row %d maps to %d (mask %#x), want %d (%#x)", thr, i, groups[i], mask[i], want[i], wantMask[i])
			}
		}
	}
}
