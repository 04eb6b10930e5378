package agg

import (
	"math/rand"
	"testing"

	"bipie/internal/bitpack"
)

// TestScalarMinMaxEquivalence checks the extremum kernels against a naive
// per-row loop across every unpacked word size, including groups that
// receive no rows (which must keep the Init sentinel).
func TestScalarMinMaxEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const numGroups = 16
	for _, width := range []uint8{6, 8, 13, 16, 27, 32, 44} {
		n := 4096
		vals := make([]uint64, n)
		mask := uint64(1)<<width - 1
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		groups := make([]uint8, n)
		for i := range groups {
			groups[i] = uint8(rng.Intn(numGroups - 2)) // last two groups stay empty
		}
		col := bitpack.MustPack(vals, width).UnpackSmallest(nil, 0, n)

		wantMin := make([]int64, numGroups)
		wantMax := make([]int64, numGroups)
		InitMin(wantMin)
		InitMax(wantMax)
		for i, g := range groups {
			if v := int64(vals[i]); v < wantMin[g] {
				wantMin[g] = v
			}
			if v := int64(vals[i]); v > wantMax[g] {
				wantMax[g] = v
			}
		}

		gotMin := make([]int64, numGroups)
		gotMax := make([]int64, numGroups)
		InitMin(gotMin)
		InitMax(gotMax)
		ScalarMin(groups, col, gotMin)
		ScalarMax(groups, col, gotMax)
		for g := 0; g < numGroups; g++ {
			if gotMin[g] != wantMin[g] {
				t.Fatalf("width %d: min[%d]=%d want %d", width, g, gotMin[g], wantMin[g])
			}
			if gotMax[g] != wantMax[g] {
				t.Fatalf("width %d: max[%d]=%d want %d", width, g, gotMax[g], wantMax[g])
			}
		}
		// Empty groups keep the sentinels.
		if gotMin[numGroups-1] != 1<<63-1 || gotMax[numGroups-1] != -1<<63 {
			t.Fatalf("width %d: empty group lost its sentinel", width)
		}
	}
}
