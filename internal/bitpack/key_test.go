package bitpack

import (
	"math/rand"
	"testing"
)

// Key against Get: every pair of widths whose codes fit a byte (the 4+4
// pair on its word-parallel body, the rest windowed) and one column alone,
// at word-aligned starts, unaligned starts and lengths that leave a head, a
// tail or no body, with the bits past each column's last lane clear and
// set. Bytes around the window are never written.
func TestKeyAgreesWithGet(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n = 2*4096 + 21
	for wa := uint8(1); wa <= 8; wa++ {
		for wb := uint8(0); wa+wb <= 8; wb++ {
			a := MustPack(randomWithin(rng, n, wa), wa)
			var b *Vector
			if wb > 0 {
				b = MustPack(randomWithin(rng, n, wb), wb)
			}
			for _, dirty := range []bool{false, true} {
				if dirty {
					a = dirtyPadding(t, a)
					if b != nil {
						b = dirtyPadding(t, b)
					}
				}
				for _, r := range [][2]int{{0, n}, {4096, 4096}, {0, 15}, {16, 33}, {3, 4096}, {7, 1}, {n - 17, 17}, {n, 0}, {4093, 29}} {
					start, count := r[0], r[1]
					dst := make([]uint8, count+2)
					dst[0], dst[count+1] = 0xA5, 0x5A
					Key(dst[1:count+1], a, b, start)
					if dst[0] != 0xA5 || dst[count+1] != 0x5A {
						t.Fatalf("w%d+%d [%d,+%d) dirty=%v: wrote outside its window", wa, wb, start, count, dirty)
					}
					for i := 0; i < count; i++ {
						want := a.Get(start + i)
						if b != nil {
							want |= b.Get(start+i) << wa
						}
						if uint64(dst[1+i]) != want {
							t.Fatalf("w%d+%d [%d,+%d) dirty=%v: key %d = %#x, want %#x", wa, wb, start, count, dirty, start+i, dst[1+i], want)
						}
					}
				}
			}
		}
	}
}

// Codes wider than a key byte together are refused at the boundary.
func TestKeyRejectsWideCodes(t *testing.T) {
	a, b := MustPack(make([]uint64, 64), 5), MustPack(make([]uint64, 64), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("a 5- and a 4-bit code in one key byte: want a panic")
		}
	}()
	Key(make([]uint8, 64), a, b, 0)
}
