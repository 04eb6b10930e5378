package bitpack

import (
	"math/rand"
	"testing"
)

// TestSplitLanes pins the head/body/tail splitter unpack and compare share,
// for every width and every start residue: the head is shorter than one
// period, the body starts on a word boundary and is a whole number of
// periods, and the tail is shorter than one period.
func TestSplitLanes(t *testing.T) {
	for width := uint8(1); width <= 32; width++ {
		p := periodLanes(width)
		if p*int(width)%64 != 0 || p/2*int(width)%64 == 0 && p > 1 {
			t.Fatalf("width %d: %d lanes is not the shortest word-aligned period", width, p)
		}
		for start := 0; start < 2*p; start++ {
			for n := 0; n <= 3*p+1; n++ {
				head, body := splitLanes(width, start, n)
				tail := n - head - body
				if head < 0 || head >= p || body < 0 || body%p != 0 || tail < 0 || tail >= p {
					t.Fatalf("width %d start %d n %d: head %d body %d tail %d, period %d", width, start, n, head, body, tail, p)
				}
				if body > 0 && (start+head)*int(width)%64 != 0 {
					t.Fatalf("width %d start %d n %d: body starts at lane %d, not on a word boundary", width, start, n, start+head)
				}
				if head < n && body == 0 && n-head >= p {
					t.Fatalf("width %d start %d n %d: empty body leaves %d lanes", width, start, n, n-head)
				}
			}
		}
	}
	// A width without a kernel, or unpacked into wider lanes than its
	// kernel's, is all head.
	for _, c := range []struct {
		width     uint8
		laneBytes int
		body      bool
	}{{6, 1, true}, {6, 2, false}, {12, 2, true}, {24, 4, true}, {4, 4, false}, {5, 1, false}, {13, 2, false}, {48, 8, false}} {
		v := MustPack(make([]uint64, 1000), c.width)
		head, body := v.split(c.laneBytes, 3, 900)
		if (body > 0) != c.body || !c.body && head != 900 {
			t.Errorf("width %d into %d-byte lanes: head %d body %d, want a body: %v", c.width, c.laneBytes, head, body, c.body)
		}
	}
}

// The word-parallel unpack kernels must agree with the general windowed
// path at every width, offset, and length — including offsets that are not
// word-aligned (a windowed head) and ragged tails.
func TestFastUnpackAgreesWithGet(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, width := range []uint8{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		n := 5000
		mask := uint64(1)<<width - 1
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		v := MustPack(vals, width)
		perWord := periodLanes(width)
		starts := []int{0, perWord, perWord * 3, 1, perWord - 1, perWord + 1, 4096 % n}
		for _, start := range starts {
			for _, length := range []int{0, 1, perWord - 1, perWord, perWord*4 + 3, 777} {
				if start+length > n {
					continue
				}
				check := func(got func(i int) uint64) {
					t.Helper()
					for i := 0; i < length; i++ {
						if got(i) != vals[start+i] {
							t.Fatalf("width=%d start=%d len=%d: [%d]=%d want %d",
								width, start, length, i, got(i), vals[start+i])
						}
					}
				}
				if width <= 8 {
					dst := make([]uint8, length)
					v.UnpackUint8(dst, start)
					check(func(i int) uint64 { return uint64(dst[i]) })
				}
				if width <= 16 {
					dst := make([]uint16, length)
					v.UnpackUint16(dst, start)
					check(func(i int) uint64 { return uint64(dst[i]) })
				}
				if width <= 32 {
					dst := make([]uint32, length)
					v.UnpackUint32(dst, start)
					check(func(i int) uint64 { return uint64(dst[i]) })
				}
			}
		}
	}
}

func TestSpreadKernels(t *testing.T) {
	// The period family's chain: a 48-bit chunk of 24-, 12-, 6- or 3-bit
	// fields widened to 32-, 16-, 8- or 4-bit lanes, garbage above bit 48
	// (the next chunk's bits) dropped.
	for _, c := range []struct {
		field, lane uint
		spread      func(uint64) uint64
	}{{24, 32, spread32}, {12, 16, spread16}, {6, 8, spread8}, {3, 4, spread4}} {
		var chunk, wantLanes uint64
		for i := uint(0); i < 48/c.field; i++ {
			val := uint64(0x9E3779B97F4A7C15) >> (i + 3) & (1<<c.field - 1)
			chunk |= val << (i * c.field)
			wantLanes |= val << (i * c.lane)
		}
		if got := c.spread(chunk | 0xABCD<<48); got != wantLanes {
			t.Errorf("spread%d: %016x want %016x", c.lane, got, wantLanes)
		}
	}

	// spreadNibbles: 8 nibbles 0x87654321 → bytes 1,2,3,4,5,6,7,8.
	got := spreadNibbles(0x87654321)
	want := uint64(0x0807060504030201)
	if got != want {
		t.Errorf("spreadNibbles: %016x want %016x", got, want)
	}
	// spreadCrumbs: 2-bit values 3,2,1,0,3,2,1,0 packed LSB-first.
	var crumbs uint16
	vals := []uint64{3, 2, 1, 0, 3, 2, 1, 0}
	for i, v := range vals {
		crumbs |= uint16(v) << (2 * uint(i))
	}
	g := spreadCrumbs(crumbs)
	for i, v := range vals {
		if b := uint8(g >> (8 * uint(i))); uint64(b) != v {
			t.Errorf("spreadCrumbs byte %d = %d want %d", i, b, v)
		}
	}
	// spreadBits: 0b10110001 → bytes 1,0,0,0,1,1,0,1.
	gb := spreadBits(0b10110001)
	wantBits := []uint8{1, 0, 0, 0, 1, 1, 0, 1}
	for i, v := range wantBits {
		if b := uint8(gb >> (8 * uint(i))); b != v {
			t.Errorf("spreadBits byte %d = %d want %d", i, b, v)
		}
	}
}
