package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/expr"
	"bipie/internal/obs"
)

// truncatePacked cuts the bit-packed column name of seg down to its first
// rows values while the segment still claims all of its rows, as a segment
// whose bytes went bad after loading checked them would. A scan of it
// reads past the end of the packed words.
func truncatePacked(t *testing.T, seg *colstore.Segment, name string, rows int) {
	t.Helper()
	col, err := seg.IntCol(name)
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := col.(*encoding.BitPackColumn)
	if !ok {
		t.Fatalf("column %s is %v, not bit-packed", name, col.Kind())
	}
	vals := make([]uint64, rows)
	for i := range vals {
		vals[i] = bp.Packed().Get(i)
	}
	short, err := bitpack.Pack(vals, bp.Width())
	if err != nil {
		t.Fatal(err)
	}
	*bp.Packed() = *short
}

// A panic on the decode path fails that scan with ErrInternal, carrying
// the panic and its stack, and counts as a scan error; the process and
// the next scan go on.
func TestScanPanicIsContained(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	q := &Query{
		GroupBy:    []string{"g"},
		Aggregates: []Aggregate{CountStar(), SumOf(expr.Col("b"))},
	}
	bad := buildTable(t, rng, 20000, 4, 6000)
	truncatePacked(t, bad.Segments()[1], "b", 64)

	errsBefore := metricScanErrors.Value()
	for _, c := range []struct {
		workers int
		trace   *obs.ScanTrace
	}{{1, nil}, {4, obs.NewScanTrace(0)}} {
		p, err := Prepare(bad, q, Options{Parallelism: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = p.RunTraced(context.Background(), c.trace)
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("%d workers: scan of a corrupted segment returned %v, want ErrInternal", c.workers, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "panic: bitpack: ") || !strings.Contains(msg, "goroutine ") {
			t.Fatalf("%d workers: the error lacks the panic or its stack:\n%s", c.workers, msg)
		}
	}
	if n := metricScanErrors.Value() - errsBefore; n < 2 {
		t.Fatalf("engine.scan_errors grew by %d over two failed scans", n)
	}

	good := buildTable(t, rng, 20000, 4, 6000)
	got, err := Run(good, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunNaive(good, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "sound table after a contained panic", got, want)
}
