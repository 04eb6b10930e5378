package agg

import (
	"math"
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
// Half the layouts have the product words a walk computes (see
// fuzzProducts); the reference materializes each product in its lane and
// sums that vector the old way.
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
		ws, prods, sizes, base, l := fuzzMultiLayout(t, rng, numGroups, skip)
		m := l.NewState()

		lengths := []int{0, 1, tileRows - 1, tileRows, tileRows + 1, 4096}
		rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
		if saturate {
			for rows := 0; rows < maxRowsBetweenFlushes; rows += 4096 {
				lengths = append(lengths, 4096)
			}
		}
		groups := make([]uint8, 4096)
		// cols are the reference's vectors, products materialized; in is
		// what the walk reads: no vector for a product, its operands after.
		cols := make([]*bitpack.Unpacked, len(ws))
		for c, w := range ws {
			cols[c] = bitpack.NewUnpacked(uint8(8*w), 4096)
		}
		in := append([]*bitpack.Unpacked(nil), cols...)
		for _, p := range prods {
			in[p.Col] = nil
		}
		for _, size := range sizes {
			in = append(in, bitpack.NewUnpacked(uint8(8*size), 4096))
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
			if base.max > 0 {
				x := in[base.input].U32
				for i := range x {
					x[i] = uint32(uint64(x[i]) % (base.max + 1))
					if saturate {
						x[i] = uint32(base.max)
					}
				}
			}
			materializeProducts(t, prods, in, cols, n)
			m.Accumulate(groups[:n], in)
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
				t.Fatalf("%v %+v groups=%d skip=%d: count[%d] = %d, want %d", ws, prods, numGroups, skip, g, gotCounts[g], wantCounts[g])
			}
			for c := range ws {
				if g == skip {
					want[c][g] = 0
				}
				if got[c][g] != want[c][g] {
					t.Fatalf("%v %+v groups=%d skip=%d: sum[%d][%d] = %d, want %d", ws, prods, numGroups, skip, c, g, got[c][g], want[c][g])
				}
			}
		}
	})
}

// fuzzMultiLayout draws one FuzzMultiAgg layout: half the time a row a
// product walk runs on (fuzzProducts), else any word-size list the layout
// accepts.
func fuzzMultiLayout(t testing.TB, rng *rand.Rand, numGroups, skip int) ([]int, []Product, []int, productBase, *MultiLayout) {
	var ws, sizes []int
	var prods []Product
	var base productBase
	if rng.Intn(2) == 0 {
		ws, prods, sizes, base = fuzzProducts(rng)
	} else {
		ws = []int{4}
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
	}
	l, err := NewProductLayout(numGroups, skip, ws, prods)
	if err != nil {
		t.Fatalf("%v %+v: %v", ws, prods, err)
	}
	return ws, prods, sizes, base, l
}

// productBase bounds a 4-byte product's base input: its values stay at or
// below max (0: no bound).
type productBase struct {
	input int
	max   uint64
}

// productEdges are operand constants: none, small, negative, a frame of
// reference, and the int64 limits, which wrap.
var productEdges = []int64{0, 1, -1, 100, -7, 90000, 1 << 40, math.MinInt64, math.MaxInt64}

// fuzzProducts draws a row of one of the two walk shapes, in shuffled
// column order: byte columns the walk's carrier holds beside the first
// factor and a 4- or 8-byte product on a base vector of its own (walk1P);
// or those columns, a 4-byte base column, a 4- or 8-byte product on it and
// an 8-byte one chained on that (walk2RC). Each factor is a 1-byte vector,
// a column of the row or not — the first one of the row's two byte columns
// when it has two, since the carrier has room for one beside it — and each
// operand comes with or without sign and constant. New
// inputs go after the columns; sizes are their word sizes. An 8-byte
// product takes any constants and wraps modulo 2^64. A 4-byte one must
// hold its exact value, as the engine only gives a product that lane when
// ranges prove it fits: its constants keep the factor in [0, fmax] and its
// base is bounded so the product tops out at or just under 2^32-1 — the
// lane edge.
func fuzzProducts(rng *rand.Rand) ([]int, []Product, []int, productBase) {
	shape := [][]int{{4 << rng.Intn(2)}, {4, 4 << rng.Intn(2), 8}}[rng.Intn(2)] // [base,] product[, chained]
	row := append([][]int{{}, {1}, {1, 1}}[rng.Intn(3)], shape...)
	perm := rng.Perm(len(row)) // row[i] is column perm[i]
	ws := make([]int, len(row))
	for i, c := range perm {
		ws[c] = row[i]
	}
	wide := perm[len(row)-len(shape):]
	var sizes []int
	input := func(size int) int {
		for _, c := range rng.Perm(len(ws)) {
			if ws[c] == size && rng.Intn(2) == 0 {
				return c // a column the row sums
			}
		}
		sizes = append(sizes, size)
		return len(ws) + len(sizes) - 1
	}
	p := Product{NegX: rng.Intn(2) == 0, NegY: rng.Intn(2) == 0}
	if len(shape) == 1 {
		p.Col, p.X = wide[0], len(ws)
		sizes = append(sizes, 4)
	} else {
		p.X, p.Col = wide[0], wide[1]
	}
	p.Y = input(1)
	if len(row)-len(shape) == 2 && p.Y >= len(ws) {
		sizes = sizes[:len(sizes)-1]
		p.Y = perm[rng.Intn(2)]
	}
	var base productBase
	if ws[p.Col] == 8 {
		p.AddX, p.AddY = productEdges[rng.Intn(len(productEdges))], productEdges[rng.Intn(len(productEdges))]
	} else {
		p.AddY = []int64{0, 1, 100}[rng.Intn(3)]
		fmax := p.AddY + 255 // f = y + AddY
		if p.NegY {
			p.AddY += 255 // f = AddY - y
			fmax = p.AddY
		}
		base = productBase{input: p.X, max: uint64(math.MaxUint32 / fmax)}
		if p.NegX {
			p.AddX = int64(base.max) // AddX - x in [0, max]
		} else {
			p.AddX = []int64{0, 1, 90000}[rng.Intn(3)]
			base.max -= uint64(p.AddX)
		}
	}
	prods := []Product{p}
	if len(shape) == 3 {
		prods = append(prods, Product{Col: wide[2], Y: input(1), NegX: rng.Intn(2) == 0, NegY: rng.Intn(2) == 0,
			AddY: productEdges[rng.Intn(len(productEdges))]})
	}
	return ws, prods, sizes, base
}

// materializeProducts writes each product's first n values into its
// reference column, in the column's lane — what the engine's program
// evaluated before the walk took products over.
func materializeProducts(t *testing.T, prods []Product, in, cols []*bitpack.Unpacked, n int) {
	t.Helper()
	prev := make([]uint64, n)
	for j, p := range prods {
		dst := cols[p.Col]
		dst.Resize(n)
		for i := 0; i < n; i++ {
			x := prev[i]
			if j == 0 {
				x = uint64(in[p.X].U32[i])
			}
			v := (signOf(p.NegX)*x + uint64(p.AddX)) * (signOf(p.NegY)*uint64(in[p.Y].U8[i]) + uint64(p.AddY))
			if dst.WordSize == 4 {
				if v > math.MaxUint32 {
					t.Fatalf("%+v: row %d's product %d overflows its 4-byte lane", p, i, v)
				}
				dst.U32[i] = uint32(v)
			} else {
				dst.U64[i] = v
			}
			prev[i] = v
		}
	}
}
