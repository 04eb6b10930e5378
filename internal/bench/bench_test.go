package bench

import (
	"math"
	"slices"
	"testing"
	"time"
)

// Every experiment must run end to end on small inputs; the numbers mean
// little at this scale, but structure, labels, error paths and the
// engagement guards of the encoded-domain sweeps are fully exercised.
var smoke = Sizes{Rows: 1 << 14, GridRows: 1 << 14, Q1Rows: 1 << 15}

// A smoke-size kernel call takes microseconds, so perfstat.Time still
// takes its ten runs per point inside this floor.
func init() { minMeasure = 2 * time.Millisecond }

// ran holds each experiment's smoke-size table, so the per-table
// assertions below read what TestRegistrySmoke ran instead of re-running.
var ran = map[string]*Table{}

// run looks an experiment up by id and runs it once at smoke size.
func run(t *testing.T, id string) *Table {
	t.Helper()
	if tbl := ran[id]; tbl != nil {
		return tbl
	}
	ran[id] = rerun(t, id)
	return ran[id]
}

// rerun runs an experiment at smoke size whether or not it ran before.
func rerun(t *testing.T, id string) *Table {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			tbl, err := e.Run(smoke)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return tbl
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

// num reads cell (r, c) of a table as a number.
func num(t *testing.T, tbl *Table, r, c int) float64 {
	t.Helper()
	switch v := tbl.Rows[r][c].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	t.Fatalf("%s: cell (%d,%d) = %v is not a number", tbl.Title, r, c, tbl.Rows[r][c])
	return 0
}

// TestRegistrySmoke runs every registered experiment and requires a
// non-empty, rectangular table whose measurements are finite and positive.
// An engagement guard inside an experiment (a sweep whose column left its
// encoded path) surfaces here as the experiment's error.
func TestRegistrySmoke(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] || e.ID == "" || e.What == "" {
			t.Fatalf("experiment %q: duplicate id or missing description", e.ID)
		}
		seen[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			tbl := run(t, e.ID)
			if tbl.Title == "" || len(tbl.Head) == 0 {
				t.Fatalf("untitled or headless table: %+v", tbl)
			}
			measured := 0
			for r, row := range tbl.Rows {
				if len(row) != 0 && len(row) != len(tbl.Head) {
					t.Fatalf("row %d has %d cells under %d heads", r, len(row), len(tbl.Head))
				}
				for c, cell := range row {
					switch v := cell.(type) {
					case float64:
						measured++
						if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
							t.Fatalf("row %d %q = %v, want finite and positive", r, tbl.Head[c], v)
						}
					case int, string:
					default:
						t.Fatalf("row %d %q holds a %T", r, tbl.Head[c], cell)
					}
				}
			}
			if measured == 0 {
				t.Fatal("table holds no measurement")
			}
		})
	}
}

func TestTable1Smoke(t *testing.T) {
	if got := len(run(t, "table1").Rows); got != 3 {
		t.Fatalf("rows=%d", got)
	}
}

func TestTable2Smoke(t *testing.T) {
	// Per-sum cost must fall (or at worst stay flat, within measurement
	// noise at smoke scale) as sums grow: the sort cost is fixed per row
	// and amortizes over aggregates (Table 2). A smoke-size point lasts
	// microseconds, so one preemption by a busy neighbour can break the
	// bound: it is held by each group's best of up to three runs.
	const attempts = 3
	best := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	tbl := run(t, "table2")
	for i := 0; i < attempts && slices.Max(best[:]) >= 1.25; i++ {
		if i > 0 {
			tbl = rerun(t, "table2")
		}
		if len(tbl.Rows) != 9 {
			t.Fatalf("rows=%d", len(tbl.Rows))
		}
		for g := range best {
			if num(t, tbl, g*3, 1) != 1 || num(t, tbl, g*3+2, 1) != 4 {
				t.Fatal("ordering")
			}
			best[g] = min(best[g], num(t, tbl, g*3+2, 2)/num(t, tbl, g*3, 2))
		}
	}
	for g, r := range best {
		if r >= 1.25 {
			t.Errorf("groups=%v: no amortization: per-sum cost at 4 sums is %.2f× that at 1 sum, best of %d runs", tbl.Rows[g*3][0], r, attempts)
		}
	}
}

func TestTable3Static(t *testing.T) {
	tbl := run(t, "table3")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
	for i := 1; i < len(tbl.Rows); i++ {
		if num(t, tbl, i, 2) <= num(t, tbl, i-1, 2) {
			t.Fatal("SWAR ops must grow with width")
		}
		if num(t, tbl, i, 3) <= num(t, tbl, i-1, 3) {
			t.Fatal("paper instrs must grow with width")
		}
	}
}

func TestTable4Smoke(t *testing.T) {
	tbl := run(t, "table4")
	// The carrier layout of each mix: word 0 takes the count and the first
	// 1- or 2-byte field, further 2-byte fields pair up in later carrier
	// words, and every 4- or 8-byte input owns a word.
	words := []float64{2, 3, 4, 5, 4}
	if len(tbl.Rows) != len(words) {
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
	for i, want := range words {
		if got := num(t, tbl, i, 2); got != want {
			t.Fatalf("%v: accumulator row has %v words, want %v", tbl.Rows[i][0], got, want)
		}
	}
	if tbl.Rows[2][0] != "8-8-4-2" {
		t.Fatalf("size-mix label %q", tbl.Rows[2][0])
	}
}

func TestTable5Smoke(t *testing.T) {
	tbl := run(t, "table5")
	if len(tbl.Rows) != 13 { // 11 published + 2 measured
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
	measured := 0
	for r, row := range tbl.Rows {
		if row[6] == "measured now" {
			measured++
			// The scan is timed on a prepared plan, so it cannot cost more
			// than the row-at-a-time baseline over the same rows.
			if measured == 2 && num(t, tbl, r-1, 5) >= num(t, tbl, r, 5) {
				t.Errorf("BIPie scan %.1f clocks/row is not below naive %.1f", num(t, tbl, r-1, 5), num(t, tbl, r, 5))
			}
		}
	}
	if measured != 2 {
		t.Fatalf("measured=%d", measured)
	}
}

func TestFigSmokes(t *testing.T) {
	for id, want := range map[string]int{"fig2": 12, "fig3": 5, "fig5": 9, "compaction": 2} {
		if got := len(run(t, id).Rows); got != want {
			t.Fatalf("%s rows=%d", id, got)
		}
	}
	// Four widths of thirteen selectivities, a separator between them.
	if got := len(run(t, "fig7").Rows); got != 4*13+3 {
		t.Fatalf("fig7 rows=%d", got)
	}
}

func TestGridSmoke(t *testing.T) {
	// The cells behind fig8, with every combination's cost still attached.
	cells, err := gridCells(8, 7, smoke.GridRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 50 {
		t.Fatalf("cells=%d", len(cells))
	}
	for _, c := range cells {
		if c.best == "" || c.all[c.best] <= 0 {
			t.Fatalf("bad cell: %+v", c)
		}
		want := 9
		if c.selPct == 100 {
			want = 3 // no selection step at 100%
		}
		if len(c.all) != want {
			t.Fatalf("cell %d/%d%%: combos=%d want %d", c.sums, c.selPct, len(c.all), want)
		}
	}
	// The rendered grid: a cost row and a label row per sum count.
	tbl := run(t, "fig8")
	if len(tbl.Rows) != 10 || len(tbl.Head) != 11 {
		t.Fatalf("fig8 is %d rows x %d columns", len(tbl.Rows), len(tbl.Head))
	}
}
