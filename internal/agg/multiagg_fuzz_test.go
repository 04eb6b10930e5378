package agg

import (
	"math/rand"
	"testing"

	"bipie/internal/bitpack"
)

// FuzzMultiAgg holds MultiAgg's sums and counts equal to ScalarSum and
// ScalarCount over seeded random inputs: any word-size list the layout
// accepts, 1–256 groups with or without a skip group, batches of every
// length that straddles a tile, 8-byte inputs that are negative as int64 —
// and, saturated, every narrow field at its lane maximum for a whole flush
// interval and one batch more, the run the fields' spare bits are sized for.
func FuzzMultiAgg(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed*37), seed%2 == 1, seed%6 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, groupsMinus1 uint8, withSkip, saturate bool) {
		rng := rand.New(rand.NewSource(seed))
		numGroups, skip := 1+int(groupsMinus1), -1
		if withSkip {
			skip = rng.Intn(numGroups)
		}
		ws := []int{4}
		for try := 0; try < 8; try++ {
			cand := make([]int, 1+rng.Intn(10))
			for i := range cand {
				cand[i] = 1 << rng.Intn(4)
			}
			if multiFits(cand) {
				ws = cand
				break
			}
		}
		m, err := NewMultiAgg(numGroups, skip, ws)
		if err != nil {
			t.Fatalf("%v: %v", ws, err)
		}

		lengths := []int{0, 1, tileRows - 1, tileRows, tileRows + 1, 4096}
		rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
		if saturate {
			for rows := 0; rows < maxRowsBetweenFlushes; rows += 4096 {
				lengths = append(lengths, 4096)
			}
		}
		groups := make([]uint8, 4096)
		cols := make([]*bitpack.Unpacked, len(ws))
		for c, w := range ws {
			cols[c] = bitpack.NewUnpacked(uint8(8*w), 4096)
		}
		wantCounts := make([]int64, numGroups)
		want := make([][]int64, len(ws))
		for c := range want {
			want[c] = make([]int64, numGroups)
		}
		for _, n := range lengths {
			for i := range groups[:n] {
				groups[i] = uint8(rng.Intn(numGroups))
			}
			for _, col := range cols {
				col.Resize(n)
				for i := 0; i < n; i++ {
					v := rng.Uint64()
					if saturate {
						v = ^uint64(0) // lane maxima; -1 in an 8-byte lane
					}
					switch col.WordSize {
					case 1:
						col.U8[i] = uint8(v)
					case 2:
						col.U16[i] = uint16(v)
					case 4:
						col.U32[i] = uint32(v)
					default:
						col.U64[i] = v
					}
				}
			}
			m.Accumulate(groups[:n], cols)
			ScalarCount(groups[:n], wantCounts)
			for c, col := range cols {
				ScalarSum(groups[:n], col, want[c])
			}
		}

		gotCounts := make([]int64, numGroups)
		got := make([][]int64, len(ws))
		for c := range got {
			got[c] = make([]int64, numGroups)
		}
		m.AddSums(got)
		m.AddCounts(gotCounts)
		for g := 0; g < numGroups; g++ {
			if g == skip {
				wantCounts[g] = 0
			}
			if gotCounts[g] != wantCounts[g] {
				t.Fatalf("%v groups=%d skip=%d: count[%d] = %d, want %d", ws, numGroups, skip, g, gotCounts[g], wantCounts[g])
			}
			for c := range ws {
				if g == skip {
					want[c][g] = 0
				}
				if got[c][g] != want[c][g] {
					t.Fatalf("%v groups=%d skip=%d: sum[%d][%d] = %d, want %d", ws, numGroups, skip, c, g, got[c][g], want[c][g])
				}
			}
		}
	})
}
