package bitpack

import "testing"

func TestVectorMaskSizeBytes(t *testing.T) {
	for _, width := range []uint8{1, 7, 32, 63, 64} {
		v := MustPack([]uint64{0, 1}, width)
		want := ^uint64(0)
		if width < 64 {
			want = 1<<width - 1
		}
		if v.Mask() != want {
			t.Fatalf("width %d: Mask=%#x want %#x", width, v.Mask(), want)
		}
		if v.SizeBytes() != len(v.Words())*8 {
			t.Fatalf("width %d: SizeBytes=%d want %d", width, v.SizeBytes(), len(v.Words())*8)
		}
	}
}

func TestCheckUnpack(t *testing.T) {
	v := MustPack([]uint64{1, 2, 3, 4}, 9)
	v.CheckUnpack(16, 0, 4) // ok: 9 bits into 16-bit words, full range
	v.CheckUnpack(64, 2, 2) // ok: suffix range

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("narrow", func() { v.CheckUnpack(8, 0, 4) })
	mustPanic("past end", func() { v.CheckUnpack(64, 2, 3) })
	mustPanic("negative start", func() { v.CheckUnpack(64, -1, 1) })
	mustPanic("negative n", func() { v.CheckUnpack(64, 0, -1) })
}

func TestNewUnpackedWordSizes(t *testing.T) {
	cases := []struct {
		width uint8
		ws    int
	}{{1, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 4}, {32, 4}, {33, 8}, {64, 8}}
	for _, c := range cases {
		u := NewUnpacked(c.width, 10)
		if u.WordSize != c.ws {
			t.Fatalf("width %d: WordSize=%d want %d", c.width, u.WordSize, c.ws)
		}
		if u.Len() != 10 {
			t.Fatalf("width %d: Len=%d want 10", c.width, u.Len())
		}
	}
}

func TestUnpackedResize(t *testing.T) {
	for _, width := range []uint8{8, 16, 32, 64} {
		u := NewUnpacked(width, 100)
		u.Resize(40)
		if u.Len() != 40 {
			t.Fatalf("width %d: shrink Len=%d want 40", width, u.Len())
		}
		u.Resize(250) // beyond capacity: reallocates
		if u.Len() != 250 {
			t.Fatalf("width %d: grow Len=%d want 250", width, u.Len())
		}
	}
}
