package bitpack

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// checkUnpackSweep holds the typed unpackers — head, kernel body and tail —
// to the windowed loop for one start and the lengths 0 … 2×period+1 plus
// everything up to the end of the vector.
func checkUnpackSweep(t *testing.T, v *Vector, start int) {
	t.Helper()
	width := v.Bits()
	lengths := []int{v.Len() - start}
	for n := 0; n <= 2*periodLanes(width)+1 && start+n <= v.Len(); n++ {
		lengths = append(lengths, n)
	}
	want := make([]uint64, v.Len()-start)
	unpackWindowed(v, want, start)
	for _, n := range lengths {
		if width <= 8 {
			checkUnpacked(t, v, start, n, want, v.UnpackUint8)
		}
		if width <= 16 {
			checkUnpacked(t, v, start, n, want, v.UnpackUint16)
		}
		if width <= 32 {
			checkUnpacked(t, v, start, n, want, v.UnpackUint32)
		}
	}
}

func checkUnpacked[T uint8 | uint16 | uint32](t *testing.T, v *Vector, start, n int, want []uint64, unpack func([]T, int)) {
	t.Helper()
	got := make([]T, n)
	unpack(got, start)
	for i, g := range got {
		if uint64(g) != want[i] {
			t.Fatalf("width %d start %d n %d into %T: [%d] = %d, want %d", v.Bits(), start, n, g, i, g, want[i])
		}
	}
}

// packReference is the pack loop Pack had before it built each word in a
// register: a read-modify-write of words[w] per value. It is the oracle for
// packBody's words, as unpackWindowed is for the unpack kernels.
func packReference(values []uint64, width uint8) []uint64 {
	words := make([]uint64, WordsFor(len(values), width))
	for i, v := range values {
		bitPos := uint64(i) * uint64(width)
		w := bitPos >> 6
		off := bitPos & 63
		words[w] |= v << off
		if off+uint64(width) > 64 {
			words[w+1] |= v >> (64 - off)
		}
	}
	return words
}

// checkPackWords holds Pack, and a Packer fed the same values in two blocks
// cut at split (so the second block starts at any bit offset), to the
// reference loop's words.
func checkPackWords(t *testing.T, vals []uint64, width uint8, split int) {
	t.Helper()
	want := packReference(vals, width)
	p, err := NewPacker(len(vals), width)
	if err != nil {
		t.Fatalf("NewPacker(%d, %d): %v", len(vals), width, err)
	}
	p.Append(vals[:split])
	p.Append(vals[split:])
	blocks, err := p.Vector()
	if err != nil {
		t.Fatalf("Packer.Vector, width %d split %d: %v", width, split, err)
	}
	for name, got := range map[string][]uint64{"Pack": MustPack(vals, width).Words(), "Packer": blocks.Words()} {
		if len(got) != len(want) {
			t.Fatalf("%s width %d n %d: %d words, reference has %d", name, width, len(vals), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s width %d n %d split %d: word %d = %#x, reference %#x", name, width, len(vals), split, i, got[i], want[i])
			}
		}
	}
}

// sweepRows is the vector length of the kernel sweeps: one batch after the
// longest head.
const sweepRows = 4096 + 64

// FuzzBitpackRoundTrip packs arbitrary values at an arbitrary width and
// checks the packed words against the reference loop, the error for a
// value that does not fit, and every decode path — Get, UnpackUint64, the
// typed unpackers with their word-parallel kernels, UnpackSmallest, the
// packed-domain Bounds and AllEven, and FromWords reconstruction — against
// the packed input. The same values, repeated to a batch, are then packed
// in two blocks cut at the fuzzed start's residue and go through
// checkUnpackSweep and Bounds (a whole zone, one from the residue, the
// rest) at it; the seeds cover every residue of every width 1–64.
func FuzzBitpackRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{0x01, 0x00, 0xFF})
	f.Add(uint8(7), uint8(3), []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add(uint8(8), uint8(1), []byte{0xFF, 0x00, 0x80, 0x7F})
	f.Add(uint8(13), uint8(2), []byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC})
	f.Add(uint8(16), uint8(5), []byte{0xAA, 0xBB, 0xCC, 0xDD})
	f.Add(uint8(31), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(32), uint8(7), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(uint8(63), uint8(4), []byte{0x80, 0x70, 0x60, 0x50, 0x40, 0x30, 0x20, 0x10})
	f.Add(uint8(64), uint8(6), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	for width := uint8(1); width <= 64; width++ {
		for r := 0; r < periodLanes(width); r++ {
			f.Add(width-1, uint8(r), []byte{0xC3, 0x5A, 0x96, 0x0F, 0xF0, 0x69, 0xA5, 0x3C, byte(width), byte(r), 0x81})
		}
	}
	f.Fuzz(func(t *testing.T, widthSeed, startSeed uint8, data []byte) {
		width := widthSeed%64 + 1 // 1..64
		mask := ^uint64(0)
		if width < 64 {
			mask = 1<<width - 1
		}
		// Derive one value per 8-byte window (last window zero-padded),
		// masked so Pack cannot fail.
		n := (len(data) + 7) / 8
		vals := make([]uint64, n)
		for i := range vals {
			var w [8]byte
			copy(w[:], data[i*8:])
			vals[i] = binary.LittleEndian.Uint64(w[:]) & mask
		}

		v, err := Pack(vals, width)
		if err != nil {
			t.Fatalf("Pack(%d values, width %d): %v", n, width, err)
		}
		if v.Len() != n || v.Bits() != width {
			t.Fatalf("Len/Bits = %d/%d, want %d/%d", v.Len(), v.Bits(), n, width)
		}

		// Random access is the oracle for everything else.
		for i, want := range vals {
			if got := v.Get(i); got != want {
				t.Fatalf("Get(%d) = %d, want %d (width %d)", i, got, want, width)
			}
		}

		start := 0
		if n > 0 {
			start = int(startSeed) % n // misaligned starts exercise fastunpack's fallback
		}
		m := n - start
		checkPackWords(t, vals, width, start)

		// One value a bit too wide: rejected, naming the stray bit.
		if n > 0 && width < 64 {
			wide := append([]uint64(nil), vals...)
			wide[start] |= 1 << width
			want := fmt.Sprintf("bitpack: values do not fit in %d bits (high bits %#x)", width, uint64(1)<<width)
			if _, err := Pack(wide, width); err == nil || err.Error() != want {
				t.Fatalf("Pack of a %d-bit value at width %d: error %v, want %q", width+1, width, err, want)
			}
		}

		u64 := make([]uint64, m)
		v.UnpackUint64(u64, start)
		for i, got := range u64 {
			if got != vals[start+i] {
				t.Fatalf("UnpackUint64[%d] = %d, want %d", i, got, vals[start+i])
			}
		}
		if width <= 8 {
			u8 := make([]uint8, m)
			v.UnpackUint8(u8, start)
			for i, got := range u8 {
				if uint64(got) != vals[start+i] {
					t.Fatalf("UnpackUint8[%d] = %d, want %d", i, got, vals[start+i])
				}
			}
		}
		if width <= 16 {
			u16 := make([]uint16, m)
			v.UnpackUint16(u16, start)
			for i, got := range u16 {
				if uint64(got) != vals[start+i] {
					t.Fatalf("UnpackUint16[%d] = %d, want %d", i, got, vals[start+i])
				}
			}
		}
		if width <= 32 {
			u32 := make([]uint32, m)
			v.UnpackUint32(u32, start)
			for i, got := range u32 {
				if uint64(got) != vals[start+i] {
					t.Fatalf("UnpackUint32[%d] = %d, want %d", i, got, vals[start+i])
				}
			}
		}

		mn, mx := v.Bounds(start, m)
		if wmn, wmx := boundsOracle(v, start, m); mn != wmn || mx != wmx {
			t.Fatalf("Bounds(%d, %d) = [%d,%d], want [%d,%d] (width %d)", start, m, mn, mx, wmn, wmx, width)
		}
		even, zero := v.AllEven()
		if we, wz := allEvenOracle(v); even != we || zero != wz {
			t.Fatalf("AllEven = (%v, %v), want (%v, %v) (width %d)", even, zero, we, wz, width)
		}

		u := v.UnpackSmallest(nil, start, m)
		if u.WordSize != WordBytes(width) {
			t.Fatalf("UnpackSmallest WordSize = %d, want %d", u.WordSize, WordBytes(width))
		}
		for i := 0; i < m; i++ {
			if got := u.Get(i); got != vals[start+i] {
				t.Fatalf("UnpackSmallest[%d] = %d, want %d", i, got, vals[start+i])
			}
		}

		if n > 0 {
			batch := make([]uint64, sweepRows)
			for i := range batch {
				batch[i] = vals[i%n] ^ uint64(i/n)&mask
			}
			residue := int(startSeed) % periodLanes(width)
			checkPackWords(t, batch, width, residue)
			checkPackWords(t, batch, width, 4096+residue)
			bv := MustPack(batch, width)
			if width <= 32 {
				checkUnpackSweep(t, bv, residue)
			}
			for _, r := range [][2]int{{0, 4096}, {residue, 4096}, {residue, sweepRows - residue}} {
				mn, mx := bv.Bounds(r[0], r[1])
				if wmn, wmx := boundsOracle(bv, r[0], r[1]); mn != wmn || mx != wmx {
					t.Fatalf("batch Bounds(%d, %d) = [%d,%d], want [%d,%d] (width %d)", r[0], r[1], mn, mx, wmn, wmx, width)
				}
			}
		}

		// Serialization round trip through the raw words.
		rt, err := FromWords(v.Words(), width, n)
		if err != nil {
			t.Fatalf("FromWords: %v", err)
		}
		for i, want := range vals {
			if got := rt.Get(i); got != want {
				t.Fatalf("FromWords Get(%d) = %d, want %d", i, got, want)
			}
		}
	})
}
