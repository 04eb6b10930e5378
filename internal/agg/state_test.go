package agg

import (
	"math/rand"
	"reflect"
	"testing"

	"bipie/internal/bitpack"
)

// TestMultiLayoutStateReuse exercises the plan/exec split of the
// multi-aggregate strategy: one immutable MultiLayout shared by several
// states, each producing oracle-identical sums, and a Reset state matching
// a fresh one exactly.
func TestMultiLayoutStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const numGroups, nCols, n = 6, 3, 5000
	groups, raw, cols := makeInput(rng, n, numGroups, nCols, 16)
	_, want := refAgg(groups, raw, numGroups)

	layout, err := NewMultiLayout(numGroups, -1, []int{2, 2, 2})
	if err != nil {
		t.Fatalf("NewMultiLayout: %v", err)
	}
	if got := layout.RowWords(); got < 1 || got > maxRowWords {
		t.Fatalf("RowWords = %d, want within [1, %d]", got, maxRowWords)
	}

	run := func(m *MultiAgg) [][]int64 {
		m.Accumulate(groups, cols)
		dst := make([][]int64, nCols)
		for c := range dst {
			dst[c] = make([]int64, numGroups)
		}
		m.AddSums(dst)
		return dst
	}

	// Two independent states of one layout agree with the oracle.
	m1, m2 := layout.NewState(), layout.NewState()
	if got := run(m1); !reflect.DeepEqual(got, want) {
		t.Fatalf("state 1 sums = %v, want %v", got, want)
	}
	if got := run(m2); !reflect.DeepEqual(got, want) {
		t.Fatalf("state 2 sums = %v, want %v", got, want)
	}

	// A Reset state behaves like a fresh one — no residue from its past
	// scan leaks into the next.
	m1.Reset()
	if got := run(m1); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused state sums = %v, want %v", got, want)
	}
}

// TestNewMultiLayoutRejectsOverflow checks the accumulator-row bound is
// enforced at layout (plan) time, before any accumulator exists.
func TestNewMultiLayoutRejectsOverflow(t *testing.T) {
	if _, err := NewMultiLayout(4, -1, []int{8, 8, 8, 8, 8}); err == nil {
		t.Fatal("five 64-bit slots and a carrier fit a five-word row?")
	}
	if _, err := NewMultiLayout(4, -1, []int{8, 8, 8, 8}); err != nil {
		t.Fatalf("four 64-bit slots rejected: %v", err)
	}
	if _, err := NewMultiLayout(4, -1, []int{1, 2, 1, 2, 1, 2, 1, 2}); err != nil {
		t.Fatalf("eight narrow fields rejected: %v", err)
	}
}

// TestSortScratchReuse verifies a SortBased built around one SortScratch
// produces identical results across repeated Prepare/Sum rounds — the
// reuse pattern of the engine's pooled exec states.
func TestSortScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const numGroups, n = 5, 4000
	sc := NewSortScratch(numGroups)
	if len(sc.starts) != numGroups+1 {
		t.Fatalf("scratch starts len = %d, want %d", len(sc.starts), numGroups+1)
	}
	s := &SortBased{numGroups: numGroups, skip: -1, scratch: sc}
	for round := 0; round < 3; round++ {
		groups, raw, cols := makeInput(rng, n, numGroups, 1, 12)
		wantCounts, wantSums := refAgg(groups, raw, numGroups)
		s.Prepare(groups, nil)
		counts := make([]int64, numGroups)
		s.AddCounts(counts)
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("round %d counts = %v, want %v", round, counts, wantCounts)
		}
		sums := make([]int64, numGroups)
		s.SumUnpacked(cols[0], sums)
		if !reflect.DeepEqual(sums, wantSums[0]) {
			t.Fatalf("round %d sums = %v, want %v", round, sums, wantSums[0])
		}
	}
}

// TestScalarSumRowAtATimeInto checks the scratch-drawing scalar kernel
// against the oracle across widths, and that one scratch serves batches of
// different shapes in sequence.
func TestScalarSumRowAtATimeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	var sc ScalarScratch
	for _, shape := range []struct {
		numGroups, nCols, n int
		width               uint8
	}{
		{3, 1, 3000, 8},
		{8, 2, 3000, 16},
		{200, 5, 3000, 30},
		{2, 7, 1000, 60},
		{4, 3, 0, 8},
	} {
		groups, raw, cols := makeInput(rng, shape.n, shape.numGroups, shape.nCols, shape.width)
		_, want := refAgg(groups, raw, shape.numGroups)
		got := make([][]int64, shape.nCols)
		for c := range got {
			got[c] = make([]int64, shape.numGroups)
		}
		ScalarSumRowAtATimeInto(&sc, groups, cols, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %+v: sums = %v, want %v", shape, got, want)
		}
	}
}

// TestScalarSumRowAtATimeMixedWidths feeds the scalar kernel columns of
// every word size in one call, interleaved, with one class past the
// unrolled five — the shapes a sum-expression program hands it (Q1: bytes,
// two 4-byte words and an 8-byte one).
func TestScalarSumRowAtATimeMixedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	var sc ScalarScratch
	for _, widths := range [][]uint8{
		{6, 24, 30, 37, 4},
		{64, 8, 16, 32, 1},
		{12, 3, 12, 3, 12, 3, 40},
		{20, 5, 20, 20, 7, 20, 20, 20, 9, 60},
	} {
		const numGroups, n = 7, 3000
		var groups []uint8
		var raw [][]uint64
		var cols []*bitpack.Unpacked
		for _, w := range widths {
			g, r, c := makeInput(rng, n, numGroups, 1, w)
			groups = g // one group vector serves every column: the last draw
			raw, cols = append(raw, r[0]), append(cols, c[0])
		}
		_, want := refAgg(groups, raw, numGroups)
		got := make([][]int64, len(cols))
		for c := range got {
			got[c] = make([]int64, numGroups)
		}
		ScalarSumRowAtATimeInto(&sc, groups, cols, got)
		ScalarSumRowAtATimeInto(&sc, groups, cols, got) // a second batch accumulates
		for c := range want {
			for g := range want[c] {
				want[c][g] *= 2
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("widths %v: sums = %v, want %v", widths, got, want)
		}
	}
}
