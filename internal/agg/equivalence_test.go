package agg

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bipie/internal/bitpack"
)

// Property: every aggregation strategy computes identical counts and sums
// on identical input — they are interchangeable implementations of one
// operator, which is the premise of runtime operator specialization
// (paper §3). quick generates the shapes; each strategy runs on the same
// batch.
func TestQuickStrategiesEquivalent(t *testing.T) {
	type shape struct {
		n         int
		numGroups int
		width     uint8
		sums      int
	}
	gen := func(rng *rand.Rand) shape {
		return shape{
			n:         rng.Intn(3000),
			numGroups: 1 + rng.Intn(32),
			width:     uint8(1 + rng.Intn(28)),
			sums:      1 + rng.Intn(4),
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := gen(rng)
		groups := make([]uint8, sh.n)
		for i := range groups {
			groups[i] = uint8(rng.Intn(sh.numGroups))
		}
		mask := uint64(1)<<sh.width - 1
		raw := make([][]uint64, sh.sums)
		packed := make([]*bitpack.Vector, sh.sums)
		cols := make([]*bitpack.Unpacked, sh.sums)
		wordSizes := make([]int, sh.sums)
		for c := range raw {
			raw[c] = make([]uint64, sh.n)
			for i := range raw[c] {
				raw[c][i] = rng.Uint64() & mask
			}
			packed[c] = bitpack.MustPack(raw[c], sh.width)
			cols[c] = packed[c].UnpackSmallest(nil, 0, sh.n)
			wordSizes[c] = cols[c].WordSize
		}
		wantCounts, wantSums := refAgg(groups, raw, sh.numGroups)

		// Scalar row-at-a-time (specialized).
		gotScalar := make([][]int64, sh.sums)
		for c := range gotScalar {
			gotScalar[c] = make([]int64, sh.numGroups)
		}
		ScalarSumRowAtATimeUnrolled(groups, cols, gotScalar)
		if !reflect.DeepEqual(gotScalar, wantSums) {
			t.Log("scalar mismatch")
			return false
		}

		// Sort-based, from packed columns.
		sb := NewSortBased(sh.numGroups, -1)
		sb.Prepare(groups, nil)
		counts := make([]int64, sh.numGroups)
		sb.AddCounts(counts)
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Log("sort counts mismatch")
			return false
		}
		for c := range packed {
			got := make([]int64, sh.numGroups)
			sb.SumPacked(packed[c], 0, got)
			if !reflect.DeepEqual(got, wantSums[c]) {
				t.Log("sort sums mismatch")
				return false
			}
		}

		// In-register, when supported for this shape.
		if InRegisterSupported(sh.numGroups, cols[0].WordSize) {
			gotCounts := make([]int64, sh.numGroups)
			InRegisterCount(groups, sh.numGroups, gotCounts)
			if !reflect.DeepEqual(gotCounts, wantCounts) {
				t.Log("in-register counts mismatch")
				return false
			}
			got := make([]int64, sh.numGroups)
			switch cols[0].WordSize {
			case 1:
				InRegisterSum8(groups, cols[0].U8, sh.numGroups, got)
			case 2:
				InRegisterSum16(groups, cols[0].U16, sh.numGroups, got)
			case 4:
				InRegisterSum32(groups, cols[0].U32, sh.numGroups, got)
			}
			if !reflect.DeepEqual(got, wantSums[0]) {
				t.Log("in-register sums mismatch")
				return false
			}
		}

		// The one-group reduction, when there is one group.
		if sh.numGroups == 1 {
			for c, col := range cols {
				if ReduceSum(col) != wantSums[c][0] {
					t.Log("reduce mismatch")
					return false
				}
			}
		}

		// Multi-aggregate, when the row fits.
		if m, err := NewMultiAgg(sh.numGroups, -1, wordSizes); err == nil {
			m.Accumulate(groups, cols)
			got := make([][]int64, sh.sums)
			for c := range got {
				got[c] = make([]int64, sh.numGroups)
			}
			m.AddSums(got)
			if !reflect.DeepEqual(got, wantSums) {
				t.Log("multi mismatch")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
