package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"bipie/internal/obs"
)

// RunTraced is the serving layer's execution entry point: each call runs
// under the caller's own ScanTrace (reset per run), so concurrent requests
// each get their own per-phase attribution.
func TestRunTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	tbl := buildTable(t, rng, 20000, 4, 5000)
	p, err := Prepare(tbl, analyzeQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewScanTrace(0)
	res, stats, err := p.RunTraced(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want.Rows) {
		t.Fatalf("RunTraced returned %d groups, Run returned %d", len(res.Rows), len(want.Rows))
	}
	if stats.RowsTotal != 20000 {
		t.Fatalf("RowsTotal = %d, want 20000", stats.RowsTotal)
	}
	if len(stats.Phases) == 0 {
		t.Fatal("RunTraced stats carry no per-phase attribution")
	}
	var calls int64
	for _, ps := range stats.Phases {
		calls += ps.Calls
	}
	if calls == 0 {
		t.Fatal("no phase recorded any calls under RunTraced")
	}
	if tr.Units() == 0 {
		t.Fatal("trace merged no scan units")
	}

	// The trace resets per run: a second execution reports that run alone,
	// not an accumulation.
	units := tr.Units()
	if _, _, err := p.RunTraced(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if tr.Units() != units {
		t.Fatalf("second run merged %d units, first merged %d — BeginScan did not reset", tr.Units(), units)
	}
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
