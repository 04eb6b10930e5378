package agg

import (
	"math"
	"math/rand"
	"testing"

	"bipie/internal/bitpack"
)

// FuzzMultiAgg holds MultiAgg's sums and counts equal to ScalarSum and
// ScalarCount over seeded random inputs: any word-size list the read walk
// accepts, 1–256 groups with or without a skip group, batches of every
// length that straddles a tile, 8-byte inputs that are negative as int64 —
// and, saturated, every narrow field at its lane maximum for a whole flush
// interval and one batch more, the run the fields' spare bits are sized for.
// Half the layouts are a cell walk (see fuzzCells) over 1–9 groups; the
// reference materializes each product and each factor's code in its lane
// and sums that vector the old way, and a cell walk is also folded at a
// random point mid-stream.
func FuzzMultiAgg(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed*37), seed%2 == 1, seed%6 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, groupsMinus1 uint8, withSkip, saturate bool) {
		rng := rand.New(rand.NewSource(seed))
		cells := rng.Intn(2) == 0
		numGroups, skip := 1+int(groupsMinus1), -1
		if cells {
			numGroups = 1 + int(groupsMinus1)%9
		}
		if withSkip {
			skip = rng.Intn(numGroups)
		}
		var ws, sizes []int
		var key CellKey
		var prods []Product
		var l *MultiLayout
		var err error
		if cells {
			ws, sizes, key, prods = fuzzCells(rng, numGroups)
			l, err = NewCellLayout(numGroups, skip, ws, key, prods)
		} else {
			ws = fuzzReadRow(rng)
			l, err = NewMultiLayout(numGroups, skip, ws)
		}
		if err != nil {
			t.Fatalf("%v %+v %+v: %v", ws, key, prods, err)
		}
		m := l.NewState()

		lengths := []int{0, 1, tileRows - 1, tileRows, tileRows + 1, 4096}
		rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
		if saturate {
			for rows := 0; rows < maxRowsBetweenFlushes; rows += 4096 {
				lengths = append(lengths, 4096)
			}
		}
		fold := rng.Intn(len(lengths))
		groups := make([]uint8, 4096)
		// cols are the reference's vectors, the computed columns
		// materialized; in is what the walk reads: no vector for a computed
		// column, the key and a base no column sums after the columns.
		cols := make([]*bitpack.Unpacked, len(ws))
		for c, w := range ws {
			cols[c] = bitpack.NewUnpacked(uint8(8*w), 4096)
		}
		in := append([]*bitpack.Unpacked(nil), cols...)
		for _, p := range prods {
			in[p.Col] = nil
		}
		for _, f := range key.Factors {
			if f.Col >= 0 {
				in[f.Col] = nil
			}
		}
		for _, size := range sizes {
			in = append(in, bitpack.NewUnpacked(uint8(8*size), 4096))
		}
		wantCounts := make([]int64, numGroups)
		want := make([][]int64, len(ws))
		for c := range want {
			want[c] = make([]int64, numGroups)
		}
		for b, n := range lengths {
			for i := range groups[:n] {
				groups[i] = uint8(rng.Intn(numGroups))
			}
			for _, col := range in {
				if col == nil {
					continue
				}
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
			if cells {
				materializeCells(key, prods, in, cols, n)
			}
			m.Accumulate(groups[:n], in)
			if cells && b == fold {
				m.Flush()
			}
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
				t.Fatalf("%v %+v %+v groups=%d skip=%d: count[%d] = %d, want %d", ws, key, prods, numGroups, skip, g, gotCounts[g], wantCounts[g])
			}
			for c := range ws {
				if g == skip {
					want[c][g] = 0
				}
				if got[c][g] != want[c][g] {
					t.Fatalf("%v %+v %+v groups=%d skip=%d: sum[%d][%d] = %d, want %d", ws, key, prods, numGroups, skip, c, g, got[c][g], want[c][g])
				}
			}
		}
	})
}

// fuzzReadRow draws a word-size list the read walk accepts.
func fuzzReadRow(rng *rand.Rand) []int {
	for try := 0; try < 8; try++ {
		cand := make([]int, 1+rng.Intn(10))
		for i := range cand {
			cand[i] = 1 << rng.Intn(4)
		}
		if multiFits(cand) {
			return cand
		}
	}
	return []int{4}
}

// productEdges are operand constants: none, small, negative, a frame of
// reference, and the int64 limits, which wrap.
var productEdges = []int64{0, 1, -1, 100, -7, 90000, 1 << 40, math.MinInt64, math.MaxInt64}

// fuzzCells draws a cell-walk row in shuffled column order: one or two
// products — the second on the base or chained on the first — each on a
// factor of a key of one or two codes 1–4 bits wide (narrowed where
// numGroups of them would pass maxCells), each operand with or without
// sign and constant; and, each or not, the base as a summed 4-byte column,
// a column summing each factor's code, and one byte column. Products take
// 8-byte reference lanes and wrap modulo 2^64. The inputs past the columns
// (sizes are their word sizes) are the base when no column sums it, then
// the key.
func fuzzCells(rng *rand.Rand, numGroups int) (ws, sizes []int, key CellKey, prods []Product) {
	bits := 0
	for j := 1 + rng.Intn(2); j > 0; j-- {
		w := 1 + rng.Intn(4)
		for numGroups<<(bits+w) > maxCells {
			w--
		}
		key.Factors = append(key.Factors, Factor{Bits: uint(w), Col: -1})
		bits += w
	}
	type role struct{ kind, j int } // kind: 0 base, 1 product j, 2 factor j's code, 3 byte column
	var roles []role
	if rng.Intn(2) == 0 {
		roles = append(roles, role{kind: 0})
	}
	prods = make([]Product, 1+rng.Intn(2))
	for j := range prods {
		roles = append(roles, role{1, j})
	}
	for j := range key.Factors {
		if rng.Intn(2) == 0 {
			roles = append(roles, role{2, j})
		}
	}
	if rng.Intn(2) == 0 {
		roles = append(roles, role{kind: 3})
	}
	perm := rng.Perm(len(roles)) // role i is column perm[i]
	ws = make([]int, len(roles))
	base := -1
	for i, r := range roles {
		c := perm[i]
		switch r.kind {
		case 0:
			ws[c], base = 4, c
		case 1:
			ws[c], prods[r.j].Col = 8, c
		case 2:
			ws[c], key.Factors[r.j].Col = 1, c
		default:
			ws[c] = 1
		}
	}
	if base < 0 {
		sizes = append(sizes, 4)
		base = len(ws)
	}
	sizes = append(sizes, 1)
	key.Input = len(ws) + len(sizes) - 1
	for j := range prods {
		p := &prods[j]
		p.X = base
		if j > 0 && rng.Intn(2) == 0 {
			p.X = -1
		}
		p.Y = rng.Intn(len(key.Factors))
		p.NegX, p.NegY = rng.Intn(2) == 0, rng.Intn(2) == 0
		p.AddX, p.AddY = productEdges[rng.Intn(len(productEdges))], productEdges[rng.Intn(len(productEdges))]
	}
	return ws, sizes, key, prods
}

// materializeCells cuts the first n keys down to their factors' bits, as
// bitpack.Key builds them, and writes every column a cell walk computes
// into its reference vector — each factor's code cut out of the key, each
// product in its 8-byte lane, (±x + AddX)·(±y + AddY) with x the base or
// the previous product's value — what the engine's program evaluated
// before the walk took them over.
func materializeCells(key CellKey, prods []Product, in, cols []*bitpack.Unpacked, n int) {
	keys := in[key.Input].U8
	shifts := make([]uint, len(key.Factors)+1)
	for j, f := range key.Factors {
		shifts[j+1] = shifts[j] + uint(f.Bits)
	}
	for i := range keys[:n] {
		keys[i] &= 1<<shifts[len(key.Factors)] - 1
	}
	code := func(j, i int) uint64 { return uint64(keys[i]) >> shifts[j] & (1<<key.Factors[j].Bits - 1) }
	for j, f := range key.Factors {
		if f.Col >= 0 {
			cols[f.Col].Resize(n)
			for i := 0; i < n; i++ {
				cols[f.Col].U8[i] = uint8(code(j, i))
			}
		}
	}
	prev := make([]uint64, n)
	for _, p := range prods {
		dst := cols[p.Col]
		dst.Resize(n)
		for i := 0; i < n; i++ {
			x := prev[i]
			if p.X >= 0 {
				x = uint64(in[p.X].U32[i])
			}
			dst.U64[i] = (signOf(p.NegX)*x + uint64(p.AddX)) * (signOf(p.NegY)*code(p.Y, i) + uint64(p.AddY))
			prev[i] = dst.U64[i]
		}
	}
}
