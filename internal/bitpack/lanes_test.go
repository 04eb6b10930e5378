package bitpack

import (
	"testing"
	"testing/quick"
)

// lane8/16/32 extract lane i (0 = least significant) of x: the scalar
// reference the SWAR kernels are checked against.
func lane8(x uint64, i int) uint8   { return uint8(x >> (8 * uint(i))) }
func lane16(x uint64, i int) uint16 { return uint16(x >> (16 * uint(i))) }
func lane32(x uint64, i int) uint32 { return uint32(x >> (32 * uint(i))) }

func TestBroadcast(t *testing.T) {
	if Broadcast8(0xAB) != 0xABABABABABABABAB {
		t.Errorf("Broadcast8: %x", Broadcast8(0xAB))
	}
	if Broadcast16(0x1234) != 0x1234123412341234 {
		t.Errorf("Broadcast16: %x", Broadcast16(0x1234))
	}
	if Broadcast32(0xDEADBEEF) != 0xDEADBEEFDEADBEEF {
		t.Errorf("Broadcast32: %x", Broadcast32(0xDEADBEEF))
	}
}

// refCmpEq8 is the scalar lane-by-lane specification from the paper's
// Algorithm 2 pseudocode.
func refCmpEq8(x, y uint64) uint64 {
	var r uint64
	for i := 0; i < Lanes8; i++ {
		if lane8(x, i) == lane8(y, i) {
			r |= uint64(0xFF) << (8 * uint(i))
		}
	}
	return r
}

func refAdd8(x, y uint64) uint64 {
	var r uint64
	for i := 0; i < Lanes8; i++ {
		r |= uint64(lane8(x, i)+lane8(y, i)) << (8 * uint(i))
	}
	return r
}

func refSub8(x, y uint64) uint64 {
	var r uint64
	for i := 0; i < Lanes8; i++ {
		r |= uint64(lane8(x, i)-lane8(y, i)) << (8 * uint(i))
	}
	return r
}

func TestCmpEq8AgainstReference(t *testing.T) {
	if err := quick.Check(func(x, y uint64) bool {
		return CmpEq8(x, y) == refCmpEq8(x, y)
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Broadcast form, the shape used by in-register aggregation.
	if err := quick.Check(func(x uint64, g uint8) bool {
		return CmpEq8(x, Broadcast8(g)) == refCmpEq8(x, Broadcast8(g))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmpEq16_32(t *testing.T) {
	if got := CmpEq16(0x0001_FFFF_0001_0000, 0x0001_0000_0002_0000); got != 0xFFFF_0000_0000_FFFF {
		t.Errorf("CmpEq16 = %016x", got)
	}
	if got := CmpEq32(0x00000001_00000002, 0x00000001_00000003); got != 0xFFFFFFFF_00000000 {
		t.Errorf("CmpEq32 = %016x", got)
	}
	if err := quick.Check(func(x, y uint64) bool {
		want := uint64(0)
		for i := 0; i < Lanes16; i++ {
			if lane16(x, i) == lane16(y, i) {
				want |= uint64(0xFFFF) << (16 * uint(i))
			}
		}
		return CmpEq16(x, y) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x, y uint64) bool {
		want := uint64(0)
		for i := 0; i < Lanes32; i++ {
			if lane32(x, i) == lane32(y, i) {
				want |= uint64(0xFFFFFFFF) << (32 * uint(i))
			}
		}
		return CmpEq32(x, y) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLaneAdds(t *testing.T) {
	if err := quick.Check(func(x, y uint64) bool { return Add8(x, y) == refAdd8(x, y) }, nil); err != nil {
		t.Fatalf("Add8: %v", err)
	}
	if err := quick.Check(func(x, y uint64) bool { return Sub8(x, y) == refSub8(x, y) }, nil); err != nil {
		t.Fatalf("Sub8: %v", err)
	}
}

// Adding a CmpEq mask is adding -1 per matching lane — the core accumulation
// step of in-register aggregation (paper §5.3: "adding the mask (0xFF) is
// equivalent to adding -1").
func TestMaskAddIsMinusOne(t *testing.T) {
	counts := uint64(0)
	groups := []uint8{3, 1, 3, 3, 0, 2, 3, 1}
	var v uint64
	for i, g := range groups {
		v |= uint64(g) << (8 * uint(i))
	}
	for iter := 0; iter < 5; iter++ {
		counts = Add8(counts, CmpEq8(v, Broadcast8(3)))
	}
	for i := 0; i < Lanes8; i++ {
		want := uint8(0)
		if groups[i] == 3 {
			want = uint8(-5 & 0xFF)
		}
		if lane8(counts, i) != want {
			t.Fatalf("lane %d = %x want %x", i, lane8(counts, i), want)
		}
	}
	// Negate and horizontally sum, as the merge step does.
	neg := Sub8(0, counts)
	if SumLanes8(neg) != 4*5 {
		t.Fatalf("negated sum = %d want 20", SumLanes8(neg))
	}
}

func TestSumLanes(t *testing.T) {
	if got := SumLanes8(0x0102030405060708); got != 36 {
		t.Errorf("SumLanes8 = %d", got)
	}
	if got := SumLanes8(Broadcast8(0xFF)); got != 8*255 {
		t.Errorf("SumLanes8 max = %d", got)
	}
	if err := quick.Check(func(x uint64) bool {
		var want uint64
		for i := 0; i < Lanes8; i++ {
			want += uint64(lane8(x, i))
		}
		return SumLanes8(x) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x uint64) bool {
		var want uint64
		for i := 0; i < Lanes16; i++ {
			want += uint64(lane16(x, i))
		}
		return SumLanes16(x) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(x uint64) bool {
		var want uint64
		for i := 0; i < Lanes32; i++ {
			want += uint64(lane32(x, i))
		}
		return SumLanes32(x) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteCounts(t *testing.T) {
	if NonZeroByteCount(0) != 0 {
		t.Error("all-zero word")
	}
	if NonZeroByteCount(^uint64(0)) != 8 {
		t.Error("all-ones word")
	}
	if err := quick.Check(func(x uint64) bool {
		n := 0
		for i := 0; i < Lanes8; i++ {
			if lane8(x, i) == 0 {
				n++
			}
		}
		return NonZeroByteCount(x) == 8-n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadWideLanes(t *testing.T) {
	v16 := []uint16{1, 2, 3, 4, 5}
	w := Load16x4(v16[1:])
	for i := 0; i < 4; i++ {
		if lane16(w, i) != v16[1+i] {
			t.Fatalf("u16 lane %d", i)
		}
	}
	v32 := []uint32{7, 8, 9}
	w = Load32x2(v32[1:])
	if lane32(w, 0) != 8 || lane32(w, 1) != 9 {
		t.Fatal("u32 lanes")
	}
}

// Regression: the classic (t-lo)&^t&hi zero detector produces false
// positives when a zero-diff lane borrows from an adjacent 0x01-diff lane —
// exactly the pattern of group-id vectors over a two-group domain. The
// exact detector must not.
func TestCmpEqAdjacentLaneBorrow(t *testing.T) {
	x := uint64(0x0001000100010001) // alternating ids 1,0,1,0,... as bytes
	got := CmpEq8(x, Broadcast8(0))
	want := refCmpEq8(x, Broadcast8(0))
	if got != want {
		t.Fatalf("CmpEq8 borrow leak: got %016x want %016x", got, want)
	}
	if NonZeroByteCount(x) != 4 {
		t.Fatalf("NonZeroByteCount=%d want 4", NonZeroByteCount(x))
	}
	// 16- and 32-bit variants with the analogous pattern.
	if CmpEq16(0x0000000100000001, Broadcast16(0)) != 0xFFFF0000FFFF0000 {
		t.Fatal("CmpEq16 borrow leak")
	}
	if CmpEq32(0x0000000000000001, Broadcast32(0)) != 0xFFFFFFFF00000000 {
		t.Fatal("CmpEq32 borrow leak")
	}
}
