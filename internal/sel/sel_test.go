package sel

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bipie/internal/bitpack"
)

func randSel(rng *rand.Rand, n int, selectivity float64) ByteVec {
	v := NewByteVec(n)
	for i := range v {
		if rng.Float64() >= selectivity {
			v[i] = 0
		}
	}
	return v
}

func selectedRef(sel ByteVec) []int {
	var out []int
	for i, b := range sel {
		if b != 0 {
			out = append(out, i)
		}
	}
	return out
}

func TestNewByteVecAllSelected(t *testing.T) {
	v := NewByteVec(100)
	if len(v) != 100 {
		t.Fatalf("len=%d", len(v))
	}
	if v.CountSelected() != 100 {
		t.Fatalf("count=%d", v.CountSelected())
	}
	// Padding beyond len must be zero so whole-word loads never overcount.
	padded := v[:cap(v)]
	for i := 100; i < len(padded); i++ {
		if padded[i] != 0 {
			t.Fatal("padding not zero")
		}
	}
}

// TestNewByteVecPadsToWord checks the capacity is the length rounded up to
// a whole 8-lane word.
func TestNewByteVecPadsToWord(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 8}, {7, 8}, {8, 8}, {9, 16}, {4096, 4096}} {
		if got := cap(NewByteVec(c[0])); got != c[1] {
			t.Errorf("cap(NewByteVec(%d)) = %d want %d", c[0], got, c[1])
		}
	}
}

func TestCountSelectedAndSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{0, 1, 7, 8, 9, 100, 4096} {
		for _, s := range []float64{0, 0.1, 0.5, 0.98, 1} {
			v := randSel(rng, n, s)
			want := len(selectedRef(v))
			if got := v.CountSelected(); got != want {
				t.Fatalf("n=%d s=%v: count=%d want %d", n, s, got, want)
			}
		}
	}
}

// CountSelected must treat any non-zero byte as selected, not just 0xFF,
// because deleted-row handling writes zeros into arbitrary vectors.
func TestCountSelectedNonCanonicalBytes(t *testing.T) {
	v := ByteVec{0x01, 0x00, 0x80, 0xFF, 0x00, 0x7F, 0x00, 0x00, 0x02}
	if got := v.CountSelected(); got != 5 {
		t.Fatalf("count=%d want 5", got)
	}
}

// And and Or combine masks a word at a time; every length around the word
// boundary, and a longer right-hand side, must match the byte loop.
func TestByteVecAndOr(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 41; n++ {
		a, b := randSel(rng, n, 0.5), randSel(rng, n+n%3, 0.5)
		and, or := append(ByteVec(nil), a...), append(ByteVec(nil), a...)
		and.And(b)
		or.Or(b)
		for i := range a {
			if and[i] != a[i]&b[i] || or[i] != a[i]|b[i] {
				t.Fatalf("n=%d row %d: and %x or %x of %x, %x", n, i, and[i], or[i], a[i], b[i])
			}
		}
	}
}

// The compare-to-mask kernels against the comparison spelled per row: every
// op at every word size, written over or ANDed into a prior mask, and the
// signed form against a threshold and against a second vector.
func TestCmpMask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	holds := func(a, b int64, op CmpOp) bool {
		return map[CmpOp]bool{CmpLE: a <= b, CmpGE: a >= b, CmpEQ: a == b, CmpNE: a != b}[op]
	}
	const n = 67
	for _, width := range []uint8{3, 8, 11, 16, 21, 32, 40} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & (1<<width - 1) >> uint(rng.Intn(int(width)))
		}
		buf := bitpack.MustPack(vals, width).UnpackSmallest(nil, 0, n)
		thr := vals[rng.Intn(n)]
		for _, op := range []CmpOp{CmpLE, CmpGE, CmpEQ, CmpNE} {
			for _, first := range []bool{true, false} {
				prior := randSel(rng, n, 0.5)
				got := append(ByteVec(nil), prior...)
				CmpMaskLanes(got, buf, thr, op, first)
				for i, v := range vals {
					want := byte(0)
					if holds(int64(v), int64(thr), op) && (first || prior[i] != 0) {
						want = Selected
					}
					if got[i] != want {
						t.Fatalf("width %d op %d first %v row %d: %d vs %d gave %x", width, op, first, i, v, thr, got[i])
					}
				}
			}
		}
	}
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		a[i], b[i] = uint64(rng.Int63n(200)-100), uint64(rng.Int63n(200)-100)
	}
	for _, neg := range []byte{0, 0xFF} {
		vsThreshold, vsVector := make(ByteVec, n), make(ByteVec, n)
		CmpMaskSigned(vsThreshold, a, nil, -7, neg)
		CmpMaskSigned(vsVector, a, b, 0, neg)
		for i := range a {
			if (vsThreshold[i] != 0) != (holds(int64(a[i]), -7, CmpLE) != (neg != 0)) {
				t.Fatalf("signed neg %x row %d: %d <= -7 gave %x", neg, i, int64(a[i]), vsThreshold[i])
			}
			if (vsVector[i] != 0) != (holds(int64(a[i]), int64(b[i]), CmpLE) != (neg != 0)) {
				t.Fatalf("signed neg %x row %d: %d <= %d gave %x", neg, i, int64(a[i]), int64(b[i]), vsVector[i])
			}
		}
	}
	// The delta path's value-space instantiation orders negatives.
	got := make(ByteVec, 3)
	CmpMaskWords(got, []int64{-5, 0, 5}, -1, CmpLE, true)
	if !reflect.DeepEqual(got, ByteVec{0xFF, 0, 0}) {
		t.Fatalf("int64 words: %x", got)
	}
}

func TestCompactIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 13, 4096} {
		for _, s := range []float64{0, 0.02, 0.5, 1} {
			sel := randSel(rng, n, s)
			idx := CompactIndices(nil, sel)
			ref := selectedRef(sel)
			if len(idx) != len(ref) {
				t.Fatalf("n=%d s=%v: len=%d want %d", n, s, len(idx), len(ref))
			}
			for i := range ref {
				if int(idx[i]) != ref[i] {
					t.Fatalf("idx[%d]=%d want %d", i, idx[i], ref[i])
				}
			}
		}
	}
}

func TestCompactIndicesReuse(t *testing.T) {
	sel := NewByteVec(100)
	idx := CompactIndices(nil, sel)
	if len(idx) != 100 {
		t.Fatal("full selection")
	}
	p := &idx[0]
	sel[10] = 0
	idx2 := CompactIndices(idx, sel)
	if len(idx2) != 99 || &idx2[0] != p {
		t.Fatal("expected reuse of backing array")
	}
}

func TestPhysicalCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 1000
	sel := randSel(rng, n, 0.4)
	ref := selectedRef(sel)

	in8 := make([]uint8, n)
	in16 := make([]uint16, n)
	in32 := make([]uint32, n)
	in64 := make([]uint64, n)
	for i := 0; i < n; i++ {
		in8[i] = uint8(rng.Uint32())
		in16[i] = uint16(rng.Uint32())
		in32[i] = rng.Uint32()
		in64[i] = rng.Uint64()
	}
	out8 := make([]uint8, n)
	out16 := make([]uint16, n)
	out32 := make([]uint32, n)
	out64 := make([]uint64, n)
	if k := CompactU8(out8, in8, sel); k != len(ref) {
		t.Fatalf("u8 k=%d", k)
	}
	if k := CompactU16(out16, in16, sel); k != len(ref) {
		t.Fatalf("u16 k=%d", k)
	}
	if k := CompactU32(out32, in32, sel); k != len(ref) {
		t.Fatalf("u32 k=%d", k)
	}
	if k := CompactU64(out64, in64, sel); k != len(ref) {
		t.Fatalf("u64 k=%d", k)
	}
	for j, i := range ref {
		if out8[j] != in8[i] || out16[j] != in16[i] || out32[j] != in32[i] || out64[j] != in64[i] {
			t.Fatalf("compacted value mismatch at %d", j)
		}
	}
}

func TestCompactSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, width := range []uint8{4, 7, 14, 21, 40} {
		nSeg := 10000
		vals := make([]uint64, nSeg)
		mask := uint64(1)<<width - 1
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		v := bitpack.MustPack(vals, width)
		start, n := 4096, 4096
		sel := randSel(rng, n, 0.3)
		ref := selectedRef(sel)
		buf := CompactSelect(nil, v, start, n, sel)
		if buf.Len() != len(ref) {
			t.Fatalf("width %d: len=%d want %d", width, buf.Len(), len(ref))
		}
		for j, i := range ref {
			if buf.Get(j) != vals[start+i] {
				t.Fatalf("width %d: [%d]=%d want %d", width, j, buf.Get(j), vals[start+i])
			}
		}
	}
}

func TestGatherSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, width := range []uint8{1, 5, 8, 10, 16, 20, 28, 33, 64} {
		nSeg := 9000
		vals := make([]uint64, nSeg)
		mask := ^uint64(0)
		if width < 64 {
			mask = uint64(1)<<width - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		v := bitpack.MustPack(vals, width)
		start, n := 3000, 4096
		sel := randSel(rng, n, 0.25)
		ref := selectedRef(sel)
		buf, idx := GatherSelect(nil, nil, v, start, n, sel)
		if buf.Len() != len(ref) || len(idx) != len(ref) {
			t.Fatalf("width %d: len=%d/%d want %d", width, buf.Len(), len(idx), len(ref))
		}
		if buf.WordSize != bitpack.WordBytes(width) {
			t.Fatalf("width %d: word size %d", width, buf.WordSize)
		}
		for j, i := range ref {
			if buf.Get(j) != vals[start+i] {
				t.Fatalf("width %d: [%d]=%d want %d", width, j, buf.Get(j), vals[start+i])
			}
		}
	}
}

// Gather and compact must agree: two implementations of the same selection.
func TestGatherIndicesDirect(t *testing.T) {
	// GatherIndices must honor arbitrary index vectors — out of order and
	// with duplicates — and reuse a matching buffer across calls.
	rng := rand.New(rand.NewSource(25))
	for _, width := range []uint8{3, 8, 11, 16, 24, 40} {
		nSeg := 5000
		vals := make([]uint64, nSeg)
		mask := uint64(1)<<width - 1
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		v := bitpack.MustPack(vals, width)
		start := 1234
		idx := IndexVec{7, 7, 0, 512, 3, 3000, 1}
		buf := GatherIndices(nil, v, start, idx)
		if buf.WordSize != bitpack.WordBytes(width) || buf.Len() != len(idx) {
			t.Fatalf("width %d: ws=%d len=%d", width, buf.WordSize, buf.Len())
		}
		for j, ix := range idx {
			if buf.Get(j) != vals[start+int(ix)] {
				t.Fatalf("width %d: [%d]=%d want %d", width, j, buf.Get(j), vals[start+int(ix)])
			}
		}
		again := GatherIndices(buf, v, 0, idx[:3])
		if again != buf {
			t.Fatalf("width %d: matching buffer was not reused", width)
		}
		for j, ix := range idx[:3] {
			if again.Get(j) != vals[ix] {
				t.Fatalf("width %d: reuse [%d]=%d want %d", width, j, again.Get(j), vals[ix])
			}
		}
	}
}

func TestQuickGatherMatchesCompact(t *testing.T) {
	f := func(raw []uint64, widthSeed uint8, selBits []byte) bool {
		width := widthSeed%64 + 1
		mask := ^uint64(0)
		if width < 64 {
			mask = uint64(1)<<width - 1
		}
		vals := make([]uint64, len(raw))
		for i := range raw {
			vals[i] = raw[i] & mask
		}
		v := bitpack.MustPack(vals, width)
		sel := NewByteVec(len(vals))
		for i := range sel {
			if i < len(selBits) && selBits[i]&1 == 0 {
				sel[i] = 0
			}
		}
		g, _ := GatherSelect(nil, nil, v, 0, len(vals), sel)
		c := CompactSelect(nil, v, 0, len(vals), sel)
		if g.Len() != c.Len() {
			return false
		}
		for i := 0; i < g.Len(); i++ {
			if g.Get(i) != c.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestApplySpecialGroup runs the blend alone, as the group mapper runs it
// for one group-by column: rejected rows take the special id.
func TestApplySpecialGroup(t *testing.T) {
	groups := []uint8{0, 1, 2, 3, 0, 1, 2, 3}
	sel := ByteVec{0xFF, 0, 0xFF, 0, 0xFF, 0xFF, 0, 0}
	CombineGroups(groups[:len(sel)], nil, 0, sel, 4)
	want := []uint8{0, 4, 2, 4, 0, 1, 4, 4}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups=%v want %v", groups, want)
	}
	// Empty input is a no-op.
	CombineGroups(nil, nil, 0, nil, 4)
}

func TestApplySpecialGroupAllAndNone(t *testing.T) {
	groups := []uint8{5, 6, 7}
	CombineGroups(groups, nil, 0, ByteVec{0xFF, 0xFF, 0xFF}, 9)
	if !reflect.DeepEqual(groups, []uint8{5, 6, 7}) {
		t.Fatal("all selected should not change groups")
	}
	CombineGroups(groups, nil, 0, ByteVec{0, 0, 0}, 9)
	if !reflect.DeepEqual(groups, []uint8{9, 9, 9}) {
		t.Fatal("none selected should set all special")
	}
}

// TestCombineGroups holds the word-wide combine and blend byte-identical to
// the byte loop: every pair of cardinalities whose product fits the id
// space (up to 255 groups beside the special one), lengths around the
// eight-row word, combine alone, blend alone and both fused, and every
// special id — then holds the fused filter pass to the three passes it
// replaces, this one last.
func TestCombineGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	const maxN = 41
	g, ids, mask := make([]uint8, maxN), make([]uint8, maxN), NewByteVec(maxN)
	got, want := make([]uint8, maxN), make([]uint8, maxN)
	check := func(cardA, cardB int, special uint8) {
		t.Helper()
		for i := range g {
			g[i], ids[i] = uint8(rng.Intn(cardA)), uint8(rng.Intn(cardB))
			mask[i] = uint8(-(rng.Intn(2)))
		}
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 40, maxN} {
			for mode := 0; mode < 3; mode++ { // combine, blend, both
				useIDs, useSel := ids[:n], mask[:n]
				if mode == 1 {
					useIDs = nil
				}
				if mode == 0 {
					useSel = nil
				}
				for i := 0; i < n; i++ {
					w := g[i]
					if useIDs != nil {
						w = w*uint8(cardB) + ids[i]
					}
					if useSel != nil && mask[i] == 0 {
						w = special
					}
					want[i] = w
				}
				copy(got, g)
				CombineGroups(got[:n], useIDs, uint8(cardB), useSel, special)
				if !reflect.DeepEqual(got[:n], want[:n]) {
					t.Fatalf("cards %d×%d special %d n %d mode %d:\n got %v\nwant %v", cardA, cardB, special, n, mode, got[:n], want[:n])
				}
				if !reflect.DeepEqual(got[n:], g[n:]) {
					t.Fatalf("cards %d×%d n %d mode %d: wrote past n", cardA, cardB, n, mode)
				}
			}
		}
	}
	for cardA := 1; cardA <= 255; cardA++ {
		for cardB := 1; cardA*cardB <= 255; cardB++ {
			check(cardA, cardB, uint8(cardA*cardB))
		}
	}
	for special := 0; special <= 255; special++ {
		check(1+special%15, 1+special%17, uint8(special))
	}
	if n := testing.AllocsPerRun(20, func() { CombineGroups(got, ids, 3, mask, 9) }); n != 0 {
		t.Errorf("CombineGroups allocates %v times per call", n)
	}

	// The fused pass (bitpack.CmpLEGroups) against the three passes it
	// replaces — the packed compare, the count of its mask, both id columns
	// unpacked, then this combine and blend — on its one shape: Q1's widths
	// over whole batches, at batch starts and at a word-aligned start
	// between them; every special id, the threshold at 0, inside the domain
	// and at its top.
	const rows = 2*4096 + 1000
	date, flag, status := make([]uint64, rows), make([]uint64, rows), make([]uint64, rows)
	for i := range date {
		date[i], flag[i], status[i] = uint64(rng.Intn(4096)), uint64(rng.Intn(3)), uint64(rng.Intn(2))
	}
	v, hi, lo := bitpack.MustPack(date, 12), bitpack.MustPack(flag, 2), bitpack.MustPack(status, 1)
	var fusedMask, fusedGroups [bitpack.GroupsRows]byte
	passMask, passGroups, passIDs := NewByteVec(4096), make([]uint8, 4096), make([]uint8, 4096)
	for special := 0; special <= 255; special++ {
		thr := []uint64{0, 2500, 4095}[special%3]
		for _, start := range []int{0, 4096, 64 * 70} {
			v.CmpLEPacked(passMask, start, thr, false)
			want := passMask.CountSelected()
			hi.UnpackUint8(passGroups, start)
			lo.UnpackUint8(passIDs, start)
			CombineGroups(passGroups, passIDs, 2, passMask, uint8(special))
			kept := v.CmpLEGroups(&fusedMask, &fusedGroups, start, thr, hi, lo, uint8(special))
			if kept != want || !bytes.Equal(fusedMask[:], passMask) || !bytes.Equal(fusedGroups[:], passGroups) {
				t.Fatalf("fused pass, rows [%d,+4096) t %d special %d: kept %d, want %d; mask equal %v, groups equal %v",
					start, thr, special, kept, want, bytes.Equal(fusedMask[:], passMask), bytes.Equal(fusedGroups[:], passGroups))
			}
		}
	}
}

func TestChooseAt(t *testing.T) {
	// The crossover moves the gather/compact border without
	// touching the special-group rule.
	if got := ChooseAt(0.30, 0.50, false); got != MethodGather {
		t.Errorf("below calibrated crossover: %v", got)
	}
	if got := ChooseAt(0.30, 0.10, false); got != MethodCompact {
		t.Errorf("above calibrated crossover: %v", got)
	}
	if got := ChooseAt(0.95, 0.50, true); got != MethodSpecialGroup {
		t.Errorf("special-group rule drifted: %v", got)
	}
}

func TestMethodString(t *testing.T) {
	if MethodGather.String() != "Gather" || MethodCompact.String() != "Compact" ||
		MethodSpecialGroup.String() != "Special Group" || Method(99).String() != "Unknown" {
		t.Fatal("Method.String")
	}
}
