package bench

import "testing"

// The experiment runners must execute end to end on small inputs; the
// numbers themselves are meaningless at this scale, but structure, labels,
// and error paths are fully exercised.

const smokeRows = 1 << 14

func TestTable1Smoke(t *testing.T) {
	rows := Table1(smokeRows)
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.CyclesPerRow <= 0 {
			t.Fatalf("non-positive measurement: %+v", r)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	rows := Table2(smokeRows)
	if len(rows) != 9 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Per-sum cost must fall (or at worst stay flat, within measurement
	// noise at smoke scale) as sums grow: the sort cost is fixed per row
	// and amortizes over aggregates (Table 2).
	for g := 0; g < 3; g++ {
		one, four := rows[g*3], rows[g*3+2]
		if one.Sums != 1 || four.Sums != 4 {
			t.Fatal("ordering")
		}
		if four.CyclesPerRowSum >= one.CyclesPerRowSum*1.25 {
			t.Errorf("groups=%d: no amortization: 1 sum %.2f vs 4 sums %.2f",
				one.Groups, one.CyclesPerRowSum, four.CyclesPerRowSum)
		}
	}
}

func TestTable3Static(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SwarOps <= rows[i-1].SwarOps {
			t.Fatal("SWAR ops must grow with width")
		}
		if rows[i].PaperInstrs <= rows[i-1].PaperInstrs {
			t.Fatal("paper instrs must grow with width")
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	rows := Table4(smokeRows)
	if len(rows) != 5 {
		t.Fatalf("rows=%d", len(rows))
	}
	// The carrier layout of each mix: word 0 takes the count and the first
	// 1- or 2-byte field, further 2-byte fields pair up in later carrier
	// words, and every 4- or 8-byte input owns a word.
	words := []int{2, 3, 4, 5, 4}
	for i, r := range rows {
		if r.CyclesPerRowSum <= 0 {
			t.Fatalf("bad measurement: %+v", r)
		}
		if r.RowWords != words[i] {
			t.Fatalf("%v: accumulator row has %d words, want %d", r.Sizes, r.RowWords, words[i])
		}
	}
}

func TestTable5Smoke(t *testing.T) {
	rows := Table5(1 << 15)
	if len(rows) != 13 { // 11 published + 2 measured
		t.Fatalf("rows=%d", len(rows))
	}
	measured := 0
	for _, r := range rows {
		if r.Measured {
			measured++
			if r.ClocksPerRow <= 0 {
				t.Fatalf("bad measured row: %+v", r)
			}
		}
	}
	if measured != 2 {
		t.Fatalf("measured=%d", measured)
	}
}

func TestFigSmokes(t *testing.T) {
	if got := len(Fig2(smokeRows)); got != 12 {
		t.Fatalf("fig2 rows=%d", got)
	}
	if got := len(Fig3(smokeRows)); got != 5 {
		t.Fatalf("fig3 rows=%d", got)
	}
	if got := len(Fig5(smokeRows)); got != 9 {
		t.Fatalf("fig5 rows=%d", got)
	}
	fig7 := Fig7(smokeRows)
	if got := len(fig7); got != 4*13 {
		t.Fatalf("fig7 rows=%d", got)
	}
	for _, r := range fig7 {
		if r.FilterPacked <= 0 || r.FilterUnpack <= 0 {
			t.Fatalf("fig7 filter measurements missing: %+v", r)
		}
	}
	if got := len(Compaction()); got != 2 {
		t.Fatalf("compaction rows=%d", got)
	}
}

func TestGridSmoke(t *testing.T) {
	cells, err := Grid(GridSpec{Name: "smoke", Groups: 8, AggBits: 7}, smokeRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 50 {
		t.Fatalf("cells=%d", len(cells))
	}
	for _, c := range cells {
		if c.Best == "" || c.CyclesPerRowSum <= 0 {
			t.Fatalf("bad cell: %+v", c)
		}
		want := 9
		if c.Selectivity == 1 {
			want = 3 // no selection step at 100%
		}
		if len(c.All) != want {
			t.Fatalf("cell %d/%v: combos=%d want %d", c.Sums, c.Selectivity, len(c.All), want)
		}
	}
}
