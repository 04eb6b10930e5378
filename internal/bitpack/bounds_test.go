package bitpack

import (
	"math/rand"
	"testing"
)

// boundsOracle is the least and greatest of lanes [start, start+n) by Get.
func boundsOracle(v *Vector, start, n int) (mn, mx uint64) {
	mn = ^uint64(0)
	for i := start; i < start+n; i++ {
		mn, mx = min(mn, v.Get(i)), max(mx, v.Get(i))
	}
	return mn, mx
}

// randomWithin returns n values of width bits, each 4096-lane zone drawn
// from a window of its own so that zones differ in both bounds.
func randomWithin(rng *rand.Rand, n int, width uint8) []uint64 {
	mask := widthMask(width)
	vals := make([]uint64, n)
	for z := 0; z < n; z += 4096 {
		lo := rng.Uint64() & mask
		spread := mask >> rng.Intn(int(width)+1)
		for i := z; i < min(z+4096, n); i++ {
			vals[i] = lo + rng.Uint64()&spread
			if vals[i] > mask || vals[i] < lo {
				vals[i] = lo
			}
		}
	}
	return vals
}

// dirtyPadding returns v with every bit past its last lane set — the rest
// of the last word and the pad word — which FromWords accepts.
func dirtyPadding(t *testing.T, v *Vector) *Vector {
	t.Helper()
	words := append([]uint64(nil), v.Words()...)
	nbits := uint64(v.Len()) * uint64(v.Bits())
	if r := nbits & 63; r != 0 {
		words[nbits>>6] |= ^uint64(0) << r
	}
	for w := (nbits + 63) >> 6; w < uint64(len(words)); w++ {
		words[w] = ^uint64(0)
	}
	dirty, err := FromWords(words, v.Bits(), v.Len())
	if err != nil {
		t.Fatal(err)
	}
	return dirty
}

// Bounds against Get at every width, at word-aligned zone starts (0 and
// multiples of 4096, a kernel body with no head or tail) and at starts
// and lengths that leave a head, a tail or no body at all, with the bits
// past the last lane clear and set.
func TestBoundsAgreesWithGet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 3*4096 + 37
	for width := uint8(1); width <= MaxBits; width++ {
		clean := MustPack(randomWithin(rng, n, width), width)
		p := periodLanes(width)
		for _, v := range []*Vector{clean, dirtyPadding(t, clean)} {
			for _, start := range []int{0, 4096, 2 * 4096, 1, p - 1, p + 1, 4096 + 5} {
				for _, length := range []int{0, 1, p - 1, p, p + 1, 3 * p, 4096, 2 * 4096, 4096 + 37, n - start} {
					if start+length > n || length < 0 {
						continue
					}
					mn, mx := v.Bounds(start, length)
					wmn, wmx := boundsOracle(v, start, length)
					if mn != wmn || mx != wmx {
						t.Fatalf("width %d lanes [%d,%d): bounds [%d,%d], want [%d,%d]", width, start, start+length, mn, mx, wmn, wmx)
					}
				}
			}
		}
	}
}

// Every lane of a period holds the minimum, then the maximum, once: each
// slot of the even/odd split and of the four chunks of a three-word period
// must reach the reduced bounds.
func TestBoundsEveryLane(t *testing.T) {
	for _, width := range []uint8{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		mask := widthMask(width)
		n := 4 * periodLanes(width)
		for at := range n {
			for _, c := range []struct{ fill, odd uint64 }{{mask, 0}, {0, mask}, {mask / 2, mask/2 + 1}, {mask/2 + 1, mask / 2}} {
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = c.fill
				}
				vals[at] = c.odd
				mn, mx := MustPack(vals, width).Bounds(0, n)
				if mn != min(c.fill, c.odd) || mx != max(c.fill, c.odd) {
					t.Fatalf("width %d, %d at lane %d of %d among %d: bounds [%d,%d]", width, c.odd, at, n, c.fill, mn, mx)
				}
			}
		}
	}
}

// allEvenOracle is AllEven by Get.
func allEvenOracle(v *Vector) (even, zero bool) {
	even, zero = true, true
	for i := range v.Len() {
		even, zero = even && v.Get(i)&1 == 0, zero && v.Get(i) == 0
	}
	return even, zero
}

// AllEven against Get at every width and lengths around a period: all
// zero, all even, one odd lane at every position of two periods, and the
// bits past the last lane (the rest of its word and the pad word) set,
// which must change nothing.
func TestAllEven(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for width := uint8(1); width <= MaxBits; width++ {
		mask := widthMask(width)
		p := periodLanes(width)
		for _, n := range []int{0, 1, p - 1, p, 2*p + 1, 4096 + 3} {
			if n < 0 {
				continue
			}
			cases := [][]uint64{make([]uint64, n)}
			even := make([]uint64, n)
			for i := range even {
				even[i] = rng.Uint64() & mask &^ 1
			}
			cases = append(cases, even)
			for at := range min(n, 2*p) {
				odd := append([]uint64(nil), even...)
				odd[at] |= 1
				cases = append(cases, odd)
			}
			for _, vals := range cases {
				v := MustPack(vals, width)
				for _, v := range []*Vector{v, dirtyPadding(t, v)} {
					e, z := v.AllEven()
					we, wz := allEvenOracle(v)
					if e != we || z != wz {
						t.Fatalf("width %d n %d: AllEven (%v, %v), want (%v, %v)", width, n, e, z, we, wz)
					}
				}
			}
		}
	}
}
