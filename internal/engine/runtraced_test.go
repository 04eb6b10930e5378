package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bipie/internal/colstore"
	"bipie/internal/expr"
	"bipie/internal/obs"
	"bipie/internal/table"
)

// RunTraced runs the morsel-driven scan: whatever the segment count and worker
// count, traced or not, the answer is RunNaive's, the stats count exactly
// the live segments' rows, and the workers hold at most one exec state (a
// scan unit) per segment each. The tables have 1, 2, 3 and 5 segments of
// two morsels with a ragged last batch, and the filtered query's zone maps
// eliminate one segment. A traced run carries per-phase attribution, one
// trace unit per exec state, and the trace resets per run.
func TestRunTraced(t *testing.T) {
	const segRows = 5*colstore.BatchRows + 1000
	q := analyzeQuery()
	for _, nSegs := range []int{1, 2, 3, 5} {
		elim := nSegs / 2 // the segment whose s values the filter refutes
		tbl, liveRows := morselTable(t, rand.New(rand.NewSource(161+int64(nSegs))), nSegs, segRows, elim)
		filtered := &Query{GroupBy: q.GroupBy, Aggregates: q.Aggregates, Filter: expr.AndP(q.Filter, expr.Lt(expr.Col("s"), expr.Int(200)))}
		for _, c := range []struct {
			name       string
			q          *Query
			rows       int64
			eliminated int
		}{
			{"unfiltered", &Query{GroupBy: q.GroupBy, Aggregates: q.Aggregates}, int64(tbl.Rows()), 0},
			{"filtered", filtered, liveRows, 1},
		} {
			want, err := RunNaive(tbl, c.q)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, traced := range []bool{false, true} {
					label := fmt.Sprintf("%d segments, %s, %d workers, traced %v", nSegs, c.name, workers, traced)
					p, err := Prepare(tbl, c.q, Options{Parallelism: workers})
					if err != nil {
						t.Fatal(err)
					}
					var tr *obs.ScanTrace
					if traced {
						tr = obs.NewScanTrace(0)
					}
					res, stats, err := p.RunTraced(context.Background(), tr)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertSameResult(t, label, res, want)
					if stats.RowsTotal != c.rows || stats.SegmentsEliminated != c.eliminated || stats.SegmentsScanned != nSegs-c.eliminated {
						t.Fatalf("%s: %d rows over %d segments (%d eliminated), want %d over %d (%d)", label,
							stats.RowsTotal, stats.SegmentsScanned, stats.SegmentsEliminated, c.rows, nSegs-c.eliminated, c.eliminated)
					}
					units := 0
					for _, n := range stats.Strategies {
						units += n
					}
					if units < stats.SegmentsScanned || units > workers*stats.SegmentsScanned {
						t.Fatalf("%s: %d exec states, want %d..%d", label, units, stats.SegmentsScanned, workers*stats.SegmentsScanned)
					}
					if !traced {
						continue
					}
					if tr.Units() != units || tr.Rows() != c.rows {
						t.Fatalf("%s: trace merged %d units over %d rows, the scan had %d over %d", label, tr.Units(), tr.Rows(), units, c.rows)
					}
					var calls int64
					for _, ps := range stats.Phases {
						calls += ps.Calls
					}
					if len(stats.Phases) == 0 || calls == 0 {
						t.Fatalf("%s: stats carry no per-phase attribution", label)
					}
					// The trace resets per run: a second execution reports
					// that run alone, not an accumulation.
					if _, stats, err = p.RunTraced(context.Background(), tr); err != nil {
						t.Fatal(err)
					}
					if tr.Rows() != c.rows || tr.Units() > workers*stats.SegmentsScanned {
						t.Fatalf("%s: second run merged %d units over %d rows — BeginScan did not reset", label, tr.Units(), tr.Rows())
					}
				}
			}
		}
	}
}

// morselTable builds nSegs sealed segments of segRows rows (the last one
// ragged) over buildTable's columns plus s, a column whose values in
// segment elim lie in [500, 600) and elsewhere in [0, 100), so a filter
// s < 200 eliminates that one segment by its zone map. It returns the
// table and the rows outside segment elim.
func morselTable(t *testing.T, rng *rand.Rand, nSegs, segRows, elim int) (*table.Table, int64) {
	t.Helper()
	n := (nSegs-1)*segRows + 3*colstore.BatchRows + 123
	tbl, err := table.New(table.Schema{
		{Name: "g", Type: table.String},
		{Name: "a", Type: table.Int64},
		{Name: "d", Type: table.Int64},
		{Name: "s", Type: table.Int64},
	}, table.WithSegmentRows(segRows))
	if err != nil {
		t.Fatal(err)
	}
	ints := map[string][]int64{"a": make([]int64, n), "d": make([]int64, n), "s": make([]int64, n)}
	strs := map[string][]string{"g": make([]string, n)}
	var live int64
	for i := 0; i < n; i++ {
		strs["g"][i] = fmt.Sprintf("k%02d", rng.Intn(5))
		ints["a"][i] = rng.Int63n(100)
		ints["d"][i] = rng.Int63n(100)
		ints["s"][i] = rng.Int63n(100)
		if i/segRows == elim {
			ints["s"][i] += 500
		} else {
			live++
		}
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	if got := len(tbl.Segments()); got != nSegs {
		t.Fatalf("table has %d segments, want %d", got, nSegs)
	}
	return tbl, live
}

// Concurrent RunTraced calls with distinct traces must not interfere —
// this is exactly how the serve layer uses one shared Prepared.
func TestRunTracedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	tbl := buildTable(t, rng, 20000, 4, 5000)
	p, err := Prepare(tbl, analyzeQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := obs.NewScanTrace(0)
			for j := 0; j < 5; j++ {
				_, stats, err := p.RunTraced(context.Background(), tr)
				if err != nil {
					t.Error(err)
					return
				}
				if stats.RowsTotal != 20000 {
					t.Errorf("RowsTotal = %d, want 20000", stats.RowsTotal)
					return
				}
			}
		}()
	}
	wg.Wait()
}
