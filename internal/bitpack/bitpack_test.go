package bitpack

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want uint8
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 20, 21}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BitsFor(c.max); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestWordBytes(t *testing.T) {
	cases := []struct {
		bits uint8
		want int
	}{
		{1, 1}, {7, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 4}, {32, 4}, {33, 8}, {64, 8},
	}
	for _, c := range cases {
		if got := WordBytes(c.bits); got != c.want {
			t.Errorf("WordBytes(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
}

func TestPackGetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint8{1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 21, 23, 28, 31, 32, 33, 47, 63, 64} {
		n := 1000
		vals := make([]uint64, n)
		mask := ^uint64(0)
		if width < 64 {
			mask = (1 << width) - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		v := MustPack(vals, width)
		if v.Len() != n {
			t.Fatalf("width %d: Len=%d want %d", width, v.Len(), n)
		}
		if v.Bits() != width {
			t.Fatalf("width %d: Bits=%d", width, v.Bits())
		}
		for i, want := range vals {
			if got := v.Get(i); got != want {
				t.Fatalf("width %d: Get(%d)=%d want %d", width, i, got, want)
			}
		}
	}
}

func TestPackEmptyAndSingle(t *testing.T) {
	v := MustPack(nil, 13)
	if v.Len() != 0 {
		t.Fatalf("empty Len=%d", v.Len())
	}
	v = MustPack([]uint64{5}, 3)
	if v.Get(0) != 5 {
		t.Fatalf("single Get=%d", v.Get(0))
	}
}

func TestPackErrors(t *testing.T) {
	if _, err := Pack([]uint64{8}, 3); err == nil {
		t.Fatal("expected error for value exceeding width")
	}
	if _, err := Pack([]uint64{0}, 0); err == nil {
		t.Fatal("expected error for width 0")
	}
	if _, err := Pack([]uint64{0}, 65); err == nil {
		t.Fatal("expected error for width 65")
	}
	if _, err := Pack([]uint64{1, 7, 3}, 3); err != nil {
		t.Fatalf("unexpected error for fitting values: %v", err)
	}
	if _, err := Pack([]uint64{0, ^uint64(0)}, 64); err != nil {
		t.Fatalf("unexpected error at width 64: %v", err)
	}
}

// A Packer that was fed fewer or more values than it declared must not hand
// out a vector.
func TestPackerMiscount(t *testing.T) {
	for _, fed := range []int{2, 4} {
		p, err := NewPacker(3, 5)
		if err != nil {
			t.Fatal(err)
		}
		p.Append(make([]uint64, fed))
		if _, err := p.Vector(); err == nil {
			t.Fatalf("Vector after %d of 3 values: no error", fed)
		}
	}
	if _, err := NewPacker(1, 0); err == nil {
		t.Fatal("expected error for width 0")
	}
}

func TestPackPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value exceeding width")
		}
	}()
	MustPack([]uint64{8}, 3)
}

func TestPackPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	MustPack([]uint64{0}, 0)
}

func TestUnpackTypedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 777
	for _, width := range []uint8{1, 4, 7, 8} {
		vals := randVals(rng, n, width)
		v := MustPack(vals, width)
		dst := make([]uint8, n)
		v.UnpackUint8(dst, 0)
		for i := range vals {
			if uint64(dst[i]) != vals[i] {
				t.Fatalf("u8 width %d: [%d]=%d want %d", width, i, dst[i], vals[i])
			}
		}
	}
	for _, width := range []uint8{9, 13, 16} {
		vals := randVals(rng, n, width)
		v := MustPack(vals, width)
		dst := make([]uint16, n)
		v.UnpackUint16(dst, 0)
		for i := range vals {
			if uint64(dst[i]) != vals[i] {
				t.Fatalf("u16 width %d: [%d]=%d want %d", width, i, dst[i], vals[i])
			}
		}
	}
	for _, width := range []uint8{17, 23, 28, 32} {
		vals := randVals(rng, n, width)
		v := MustPack(vals, width)
		dst := make([]uint32, n)
		v.UnpackUint32(dst, 0)
		for i := range vals {
			if uint64(dst[i]) != vals[i] {
				t.Fatalf("u32 width %d: [%d]=%d want %d", width, i, dst[i], vals[i])
			}
		}
	}
	for _, width := range []uint8{33, 47, 64} {
		vals := randVals(rng, n, width)
		v := MustPack(vals, width)
		dst := make([]uint64, n)
		v.UnpackUint64(dst, 0)
		for i := range vals {
			if dst[i] != vals[i] {
				t.Fatalf("u64 width %d: [%d]=%d want %d", width, i, dst[i], vals[i])
			}
		}
	}
}

func TestUnpackOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randVals(rng, 500, 11)
	v := MustPack(vals, 11)
	dst := make([]uint16, 100)
	v.UnpackUint16(dst, 137)
	for i := range dst {
		if uint64(dst[i]) != vals[137+i] {
			t.Fatalf("[%d]=%d want %d", i, dst[i], vals[137+i])
		}
	}
}

func TestUnpackTypedPanicsOnWideWidth(t *testing.T) {
	v := MustPack([]uint64{1000}, 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic unpacking 12-bit into uint8")
		}
	}()
	v.UnpackUint8(make([]uint8, 1), 0)
}

func TestUnpackRangeChecks(t *testing.T) {
	v := MustPack([]uint64{1, 2, 3}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range unpack")
		}
	}()
	v.UnpackUint8(make([]uint8, 4), 1)
}

func TestUnpackSmallestSelectsWord(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		width uint8
		ws    int
	}{{5, 1}, {10, 2}, {20, 4}, {40, 8}}
	for _, c := range cases {
		vals := randVals(rng, 300, c.width)
		v := MustPack(vals, c.width)
		u := v.UnpackSmallest(nil, 0, len(vals))
		if u.WordSize != c.ws {
			t.Fatalf("width %d: WordSize=%d want %d", c.width, u.WordSize, c.ws)
		}
		if u.Len() != len(vals) {
			t.Fatalf("width %d: Len=%d", c.width, u.Len())
		}
		for i := range vals {
			if u.Get(i) != vals[i] {
				t.Fatalf("width %d: [%d]=%d want %d", c.width, i, u.Get(i), vals[i])
			}
		}
	}
}

func TestUnpackSmallestReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randVals(rng, 4096, 7)
	v := MustPack(vals, 7)
	buf := v.UnpackSmallest(nil, 0, 4096)
	ptr := &buf.U8[0]
	buf2 := v.UnpackSmallest(buf, 100, 2000)
	if buf2 != buf || &buf2.U8[0] != ptr {
		t.Fatal("expected buffer reuse for same word size and smaller n")
	}
	for i := 0; i < 2000; i++ {
		if uint64(buf2.U8[i]) != vals[100+i] {
			t.Fatalf("[%d]=%d want %d", i, buf2.U8[i], vals[100+i])
		}
	}
	// A width needing a different word size must reallocate.
	v2 := MustPack(randVals(rng, 10, 12), 12)
	buf3 := v2.UnpackSmallest(buf, 0, 10)
	if buf3.WordSize != 2 {
		t.Fatalf("WordSize=%d want 2", buf3.WordSize)
	}
}

func TestFromWords(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5, 6, 7}
	v := MustPack(vals, 9)
	v2, err := FromWords(v.Words(), 9, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if v2.Get(i) != vals[i] {
			t.Fatalf("[%d]=%d", i, v2.Get(i))
		}
	}
	if _, err := FromWords(v.Words()[:1], 9, len(vals)); err == nil {
		t.Fatal("expected error for short words")
	}
	if _, err := FromWords(v.Words(), 0, len(vals)); err == nil {
		t.Fatal("expected error for width 0")
	}
}

// Property: pack → unpack is identity for arbitrary data and widths.
func TestQuickPackRoundTrip(t *testing.T) {
	f := func(raw []uint64, widthSeed uint8) bool {
		width := widthSeed%64 + 1
		mask := ^uint64(0)
		if width < 64 {
			mask = (1 << width) - 1
		}
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = r & mask
		}
		v := MustPack(vals, width)
		out := make([]uint64, len(vals))
		v.UnpackUint64(out, 0)
		for i := range vals {
			if out[i] != vals[i] || v.Get(i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: UnpackSmallest agrees with Get at every index.
func TestQuickUnpackSmallestAgreesWithGet(t *testing.T) {
	f := func(raw []uint64, widthSeed uint8) bool {
		width := widthSeed%64 + 1
		mask := ^uint64(0)
		if width < 64 {
			mask = (1 << width) - 1
		}
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = r & mask
		}
		v := MustPack(vals, width)
		u := v.UnpackSmallest(nil, 0, len(vals))
		for i := range vals {
			if u.Get(i) != v.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randVals(rng *rand.Rand, n int, width uint8) []uint64 {
	mask := ^uint64(0)
	if width < 64 {
		mask = (1 << width) - 1
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() & mask
	}
	return vals
}
