package bitpack

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// packedCmpOps lists each packed compare op with its scalar reference
// semantics; every test below checks CmpPacked byte-for-byte against
// Get-based evaluation of these predicates.
var packedCmpOps = []packedCmpOp{
	{"LE", CmpLE, func(val, t uint64) bool { return val <= t }},
	{"GE", CmpGE, func(val, t uint64) bool { return val >= t }},
	{"EQ", CmpEQ, func(val, t uint64) bool { return val == t }},
	{"NE", CmpNE, func(val, t uint64) bool { return val != t }},
}

type packedCmpOp struct {
	name string
	op   CmpOp
	ref  func(val, t uint64) bool
}

// run is the op's kernel without the count: the mask alone.
func (o packedCmpOp) run(v *Vector, dst []byte, start int, t uint64, and bool) {
	v.CmpPacked(dst, start, o.op, t, and, false)
}

// checkCounted holds the counting entry to the op's mask-only run on the
// same incoming mask: CmpPacked asked to count writes the mask it writes
// unasked and returns its non-zero bytes, and unasked it returns 0.
func checkCounted(t *testing.T, v *Vector, op int, init []byte, start int, thr uint64, and bool) {
	t.Helper()
	want := append([]byte(nil), init...)
	packedCmpOps[op].run(v, want, start, thr, and)
	wantKept := 0
	for _, m := range want {
		if m != 0 {
			wantKept++
		}
	}
	for _, count := range []bool{true, false} {
		got := append([]byte(nil), init...)
		kept := v.CmpPacked(got, start, packedCmpOps[op].op, thr, and, count)
		if !count {
			wantKept = 0
		}
		if !bytes.Equal(got, want) || kept != wantKept {
			t.Fatalf("CmpPacked %s width=%d start=%d n=%d t=%d and=%v count=%v: kept %d want %d, mask equal %v",
				packedCmpOps[op].name, v.Bits(), start, len(init), thr, and, count, kept, wantKept, bytes.Equal(got, want))
		}
	}
}

// checkPackedCmp runs one kernel invocation against the oracle, for both
// overwrite and AND combining, starting from a randomized destination, and
// the counting entry against the kernel.
func checkPackedCmp(t *testing.T, rng *rand.Rand, v *Vector, op int, start, n int, thr uint64, and bool) {
	t.Helper()
	init := make([]byte, n)
	for i := range init {
		init[i] = byte(-(rng.Uint64() & 1)) // 0x00 or 0xFF, like a real sel vector
	}
	checkCounted(t, v, op, init, start, thr, and)
	dst := append([]byte(nil), init...)
	packedCmpOps[op].run(v, dst, start, thr, and)
	for i := 0; i < n; i++ {
		want := byte(0)
		if packedCmpOps[op].ref(v.Get(start+i), thr) {
			want = 0xFF
		}
		if and {
			want &= init[i]
		}
		if dst[i] != want {
			t.Fatalf("%s width=%d start=%d n=%d t=%d and=%v lane %d (val %d): got %#x want %#x",
				packedCmpOps[op].name, v.Bits(), start, n, thr, and, i, v.Get(start+i), dst[i], want)
		}
	}
}

func randomVector(rng *rand.Rand, width uint8, n int) *Vector {
	vals := make([]uint64, n)
	mask := widthMask(width)
	for i := range vals {
		vals[i] = rng.Uint64() & mask
	}
	return MustPack(vals, width)
}

// TestPackedCmpSWAR pins which widths have a word-parallel compare core:
// those that tile a 64-bit word exactly and the three-word period family.
func TestPackedCmpSWAR(t *testing.T) {
	kernel := map[uint8]bool{1: true, 2: true, 4: true, 8: true, 16: true, 32: true, 3: true, 6: true, 12: true, 24: true}
	for w := uint8(1); w <= 64; w++ {
		want := kernel[w]
		if got := hasKernel(w); got != want {
			t.Errorf("hasKernel(%d) = %v, want %v", w, got, want)
		}
	}
}

func TestPackedCmpMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	widths := []uint8{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 21, 31, 32, 33, 48, 63, 64}
	for _, width := range widths {
		v := randomVector(rng, width, 1500)
		mask := widthMask(width)
		thresholds := []uint64{0, 1, mask / 3, mask - 1, mask}
		if width < 64 {
			thresholds = append(thresholds, mask+1, ^uint64(0))
		}
		// Also pin thresholds to values present in the data so EQ hits.
		thresholds = append(thresholds, v.Get(0), v.Get(777))
		spans := []struct{ start, n int }{
			{0, 1500}, {0, 1}, {0, 0}, {1, 64}, {63, 130},
			{64, 64}, {100, 333}, {1499, 1}, {7, 1400},
		}
		for op := range packedCmpOps {
			for _, thr := range thresholds {
				for _, sp := range spans {
					checkPackedCmp(t, rng, v, op, sp.start, sp.n, thr, false)
					checkPackedCmp(t, rng, v, op, sp.start, sp.n, thr, true)
				}
			}
		}
	}
}

// TestPackedCmpClustered drives the kernels over monotone data, where
// LE/GE flip exactly once — the shape most sensitive to an off-by-one in
// the guard-bit trick.
func TestPackedCmpClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, width := range []uint8{4, 8, 11, 16, 32} {
		mask := widthMask(width)
		n := 2000
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i) % (mask + 1)
		}
		v := MustPack(vals, width)
		for op := range packedCmpOps {
			for _, thr := range []uint64{0, 1, 10, mask - 1, mask} {
				checkPackedCmp(t, rng, v, op, 0, n, thr, false)
				checkPackedCmp(t, rng, v, op, 5, n-5, thr, true)
			}
		}
	}
}

// cmpEdgeThresholds are the thresholds around both ends of a width's
// domain, mask+1 taking the clamp paths.
func cmpEdgeThresholds(mask uint64) []uint64 {
	return []uint64{0, 1, mask / 2, mask - 1, mask, mask + 1}
}

// checkPackedCmpSweep holds the kernels to compare-after-windowed-unpack at
// one start, overwriting and ANDing into a non-trivial incoming mask: all
// four ops at every edge threshold over 2×period+1 lanes (head, body and
// tail), then kernel op at thr over the lengths 0 … 2×period+1 and
// everything up to the end of the vector. Every call also holds the
// counting entry to the kernel (checkCounted).
func checkPackedCmpSweep(t *testing.T, rng *rand.Rand, v *Vector, start, op int, thr uint64) {
	t.Helper()
	rest := v.Len() - start
	vals := make([]uint64, rest)
	unpackWindowed(v, vals, start)
	init := make([]byte, rest)
	for i := range init {
		init[i] = byte(-(rng.Uint64() & 1))
	}
	dst := make([]byte, rest)
	check := func(op int, thr uint64, n int) {
		for _, and := range []bool{false, true} {
			checkCounted(t, v, op, init[:n], start, thr, and)
			copy(dst[:n], init)
			packedCmpOps[op].run(v, dst[:n], start, thr, and)
			for i, got := range dst[:n] {
				want := byte(0)
				if packedCmpOps[op].ref(vals[i], thr) && (!and || init[i] != 0) {
					want = 0xFF
				}
				if got != want {
					t.Fatalf("%s width=%d start=%d n=%d t=%d and=%v lane %d (val %d): got %#x want %#x",
						packedCmpOps[op].name, v.Bits(), start, n, thr, and, i, vals[i], got, want)
				}
			}
		}
	}
	span := min(2*periodLanes(v.Bits())+1, rest)
	for _, edge := range cmpEdgeThresholds(v.Mask()) {
		for o := range packedCmpOps {
			check(o, edge, span)
		}
	}
	for n := 0; n <= span; n++ {
		check(op, thr, n)
	}
	check(op, thr, rest)
}

// FuzzPackedCmp checks one fuzzed kernel call against the Get oracle, then
// sweeps a batch at the fuzzed start's residue (checkPackedCmpSweep); the
// seeds cover every residue of every width 1–32, rotating the swept op and
// threshold. Each call runs the counting entry beside the kernel: the same
// mask, and the count of its non-zero bytes.
func FuzzPackedCmp(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint16(0), uint16(100), uint64(50), uint8(0))
	f.Add(uint64(2), uint8(8), uint16(63), uint16(4096), uint64(0), uint8(5))
	f.Add(uint64(3), uint8(32), uint16(1), uint16(65), uint64(1<<31), uint8(2))
	f.Add(uint64(4), uint8(64), uint16(9000), uint16(1), ^uint64(0), uint8(7))
	f.Add(uint64(5), uint8(13), uint16(4095), uint16(8193), uint64(8191), uint8(3))
	for width := uint8(1); width <= 32; width++ {
		for r := 0; r < periodLanes(width); r++ {
			edges := cmpEdgeThresholds(widthMask(width))
			f.Add(uint64(width)<<8|uint64(r), width-1, uint16(r), uint16(4096), edges[r%len(edges)], uint8(r/len(edges)))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, width uint8, start16, n16 uint16, thr uint64, mode uint8) {
		width = width%64 + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		total := 3*4096 + int(seed%127)
		v := randomVector(rng, width, total)
		start := int(start16) % total
		n := int(n16) % (total - start + 1)
		if width < 64 {
			// Keep some probability mass just past the mask to exercise
			// the clamp paths, but mostly stay in range.
			thr %= widthMask(width) + 2
		}
		op := int(mode) % len(packedCmpOps)
		and := mode&4 != 0
		checkPackedCmp(t, rng, v, op, start, n, thr, and)
		if width <= 32 {
			checkPackedCmpSweep(t, rng, randomVector(rng, width, sweepRows), start%periodLanes(width), op, thr)
		}
	})
}

// threePassGroups is CmpLEGroups as the scan runs every batch the fused
// pass does not: CmpLEPacked's mask, the kept rows counted off it, both id
// columns unpacked into bytes, then folded and blended row by row.
func threePassGroups(v, hi, lo *Vector, start int, t uint64, special uint8) (mask, groups []byte, kept int) {
	mask, groups, ids := make([]byte, GroupsRows), make([]byte, GroupsRows), make([]byte, GroupsRows)
	v.CmpLEPacked(mask, start, t, false)
	hi.UnpackUint8(groups, start)
	lo.UnpackUint8(ids, start)
	for i, m := range mask {
		groups[i] = groups[i]*2 + ids[i]
		if m == 0 {
			groups[i] = special
		} else {
			kept++
		}
	}
	return mask, groups, kept
}

// checkCmpGroups holds one CmpLEGroups call to threePassGroups: mask bytes,
// group bytes and the kept count.
func checkCmpGroups(t *testing.T, v, hi, lo *Vector, start int, thr uint64, special uint8) {
	t.Helper()
	wantMask, wantGroups, wantKept := threePassGroups(v, hi, lo, start, thr, special)
	var mask, groups [GroupsRows]byte
	kept := v.CmpLEGroups(&mask, &groups, start, thr, hi, lo, special)
	if kept != wantKept || !bytes.Equal(mask[:], wantMask) || !bytes.Equal(groups[:], wantGroups) {
		for i := range mask {
			if mask[i] != wantMask[i] || groups[i] != wantGroups[i] {
				t.Fatalf("start %d t %d special %d: lane %d mask %#x group %d, want %#x %d (kept %d, want %d)",
					start, thr, special, i, mask[i], groups[i], wantMask[i], wantGroups[i], kept, wantKept)
			}
		}
		t.Fatalf("start %d t %d special %d: kept %d, want %d", start, thr, special, kept, wantKept)
	}
}

// groupColumns draws the two id columns of a CmpLEGroups call over rows
// lanes: 2-bit ids and 1-bit ones.
func groupColumns(rng *rand.Rand, rows int) (hi, lo *Vector) {
	h, l := make([]uint64, rows), make([]uint64, rows)
	for i := range h {
		h[i], l[i] = uint64(rng.Intn(4)), uint64(rng.Intn(2))
	}
	return MustPack(h, 2), MustPack(l, 1)
}

// FuzzFusedGroups holds CmpLEGroups to the three passes it replaces
// (threePassGroups) beside FuzzPackedCmp, on its one shape: a batch at a
// fuzzed word-aligned start — not only at multiples of the batch — of a
// vector that is not a whole number of batches, at the fuzzed threshold and
// at every threshold edge. The seeds run every edge and special ids across
// the byte (sel's TestCombineGroups runs every special id).
func FuzzFusedGroups(f *testing.F) {
	for special := 0; special < 256; special += 15 {
		for r, edge := range cmpEdgeThresholds(widthMask(12)) {
			f.Add(uint64(special)<<8|uint64(r), uint16(r*7), edge, uint8(special))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, start16 uint16, thr uint64, special uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		total := 2*GroupsRows + int(seed%GroupsRows)
		v := randomVector(rng, 12, total)
		hi, lo := groupColumns(rng, total)
		start := int(start16) % ((total-GroupsRows)/64 + 1) * 64
		checkCmpGroups(t, v, hi, lo, start, thr%(v.Mask()+2), special)
		for _, edge := range cmpEdgeThresholds(v.Mask()) {
			checkCmpGroups(t, v, hi, lo, start, edge, special)
		}
	})
}

// TestCmpLEGroupsShape pins the one shape CmpLEGroups runs: GroupsKernel
// names it, and CheckGroups refuses any other width, a start off a word
// boundary and a batch past the end of a vector.
func TestCmpLEGroupsShape(t *testing.T) {
	for _, c := range []struct {
		cmp, hi, lo, card uint8
		want              bool
	}{{12, 2, 1, 2, true}, {12, 2, 1, 1, false}, {12, 1, 1, 2, false}, {12, 2, 2, 2, false}, {11, 2, 1, 2, false}, {24, 2, 1, 2, false}} {
		if got := GroupsKernel(c.cmp, c.hi, c.lo, c.card); got != c.want {
			t.Errorf("GroupsKernel(%d, %d, %d, %d) = %v, want %v", c.cmp, c.hi, c.lo, c.card, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(75))
	v := randomVector(rng, 12, 3*GroupsRows)
	hi, lo := groupColumns(rng, 3*GroupsRows)
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	if panics(func() { v.CheckGroups(GroupsRows+64, hi, lo) }) {
		t.Errorf("CheckGroups refuses Q1's shape at a word-aligned start")
	}
	for name, f := range map[string]func(){
		"unaligned start": func() { v.CheckGroups(32, hi, lo) },
		"past the end":    func() { v.CheckGroups(2*GroupsRows+64, hi, lo) },
		"hi 1 bit":        func() { v.CheckGroups(0, lo, lo) },
		"lo 2 bits":       func() { v.CheckGroups(0, hi, hi) },
		"compare 7 bits":  func() { randomVector(rng, 7, GroupsRows).CheckGroups(0, hi, lo) },
	} {
		if !panics(f) {
			t.Errorf("CheckGroups accepts %s", name)
		}
	}
}

// TestCmpPackedCounts holds the counting entry to its kernels at every width
// 1–32 and a few wider, all four ops, overwriting and ANDing, at starts off
// every alignment and over lengths that leave a head, a body and a tail, at
// each edge threshold and one inside the range.
func TestCmpPackedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for width := uint8(1); width <= 40; width++ {
		v := randomVector(rng, width, 600)
		for op := range packedCmpOps {
			for _, thr := range append(cmpEdgeThresholds(v.Mask()), v.Get(17)) {
				for _, span := range [][2]int{{0, 600}, {5, 260}, {63, 130}, {1, 7}, {599, 1}, {3, 0}} {
					for _, and := range []bool{false, true} {
						init := make([]byte, span[1])
						for i := range init {
							init[i] = byte(-(rng.Uint64() & 1))
						}
						checkCounted(t, v, op, init, span[0], thr, and)
					}
				}
			}
		}
	}
}

func TestPackedCmpAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	dst := make([]byte, 4096)
	for _, width := range []uint8{7, 8, 12, 24, 33} { // scalar-spanning, dividing, period family, wide fallback
		v := randomVector(rng, width, 8192)
		thr := widthMask(width) / 2
		for _, op := range packedCmpOps {
			if n := testing.AllocsPerRun(100, func() {
				op.run(v, dst, 64, thr, false)
				op.run(v, dst, 64, thr, true)
				v.CmpPacked(dst, 64, op.op, thr, true, true)
			}); n != 0 {
				t.Errorf("Cmp%sPacked width %d: %v allocs/run, want 0", op.name, width, n)
			}
		}
	}
	// The fused pass, on its one shape.
	v := randomVector(rng, 12, 8192)
	hi, lo := groupColumns(rng, 8192)
	var mask, groups [GroupsRows]byte
	if n := testing.AllocsPerRun(50, func() { v.CmpLEGroups(&mask, &groups, 4096, 100, hi, lo, 6) }); n != 0 {
		t.Errorf("CmpLEGroups: %v allocs/run, want 0", n)
	}
}

// BenchmarkPackedCmp measures the packed-domain kernel against the
// unpack-then-compare sequence it replaces, per width class. The packed
// column is one batch of 4096 lanes; thresholds sit at 50% selectivity.
func BenchmarkPackedCmp(b *testing.B) {
	rng := rand.New(rand.NewSource(74))
	dst := make([]byte, 4096)
	for _, width := range []uint8{4, 6, 7, 8, 12, 13, 16, 21, 24, 32} {
		v := randomVector(rng, width, 8192)
		thr := widthMask(width) / 2
		b.Run(fmt.Sprintf("bits%d/packed", width), func(b *testing.B) {
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				v.CmpLEPacked(dst, 0, thr, false)
			}
		})
		b.Run(fmt.Sprintf("bits%d/unpack", width), func(b *testing.B) {
			b.SetBytes(4096)
			var buf *Unpacked
			for i := 0; i < b.N; i++ {
				buf = v.UnpackSmallest(buf, 0, 4096)
				unpackCompareLE(dst, buf, thr)
			}
		})
	}
}

// unpackCompareLE mirrors the engine's unpack-then-compare fallback shape
// for benchmarking: branch-free per-row mask from the unpacked words.
func unpackCompareLE(dst []byte, buf *Unpacked, t uint64) {
	switch buf.WordSize {
	case 1:
		t8 := uint8(t)
		for i, v := range buf.U8 {
			dst[i] = leMask8(v, t8)
		}
	case 2:
		t16 := uint16(t)
		for i, v := range buf.U16 {
			dst[i] = leMask16(v, t16)
		}
	case 4:
		t32 := uint32(t)
		for i, v := range buf.U32 {
			dst[i] = leMask32(v, t32)
		}
	default:
		for i, v := range buf.U64 {
			dst[i] = leMask64(v, t)
		}
	}
}

func leMask8(a, b uint8) byte {
	if a <= b {
		return 0xFF
	}
	return 0
}

func leMask16(a, b uint16) byte {
	if a <= b {
		return 0xFF
	}
	return 0
}

func leMask32(a, b uint32) byte {
	if a <= b {
		return 0xFF
	}
	return 0
}

func leMask64(a, b uint64) byte {
	if a <= b {
		return 0xFF
	}
	return 0
}
