package agg

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bipie/internal/bitpack"
)

// refAgg computes counts and sums the obvious way: the ground truth every
// strategy must reproduce exactly.
func refAgg(groups []uint8, cols [][]uint64, numGroups int) (counts []int64, sums [][]int64) {
	counts = make([]int64, numGroups)
	sums = make([][]int64, len(cols))
	for c := range cols {
		sums[c] = make([]int64, numGroups)
	}
	for i, g := range groups {
		counts[g]++
		for c := range cols {
			sums[c][g] += int64(cols[c][i])
		}
	}
	return counts, sums
}

// makeInput builds a batch: group ids uniform in [0,numGroups) and nCols
// value columns of the given bit width, returned both as raw values and as
// Unpacked buffers of the smallest word size.
func makeInput(rng *rand.Rand, n, numGroups, nCols int, width uint8) (groups []uint8, raw [][]uint64, cols []*bitpack.Unpacked) {
	groups = make([]uint8, n)
	for i := range groups {
		groups[i] = uint8(rng.Intn(numGroups))
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<width - 1
	}
	raw = make([][]uint64, nCols)
	cols = make([]*bitpack.Unpacked, nCols)
	for c := range raw {
		raw[c] = make([]uint64, n)
		for i := range raw[c] {
			raw[c][i] = rng.Uint64() & mask
		}
		cols[c] = bitpack.MustPack(raw[c], width).UnpackSmallest(nil, 0, n)
	}
	return groups, raw, cols
}

func TestScalarCountVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, numGroups := range []int{1, 2, 6, 32, 200} {
		for _, n := range []int{0, 1, 2, 4095, 4096} {
			groups, _, _ := makeInput(rng, n, numGroups, 0, 8)
			want, _ := refAgg(groups, nil, numGroups)
			got := make([]int64, numGroups)
			ScalarCount(groups, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ScalarCount g=%d n=%d", numGroups, n)
			}
			got2 := make([]int64, numGroups)
			ScalarCountMulti(groups, got2)
			if !reflect.DeepEqual(got2, want) {
				t.Fatalf("ScalarCountMulti g=%d n=%d", numGroups, n)
			}
		}
	}
}

func TestScalarSumVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, width := range []uint8{7, 14, 23, 40} {
		for _, n := range []int{0, 1, 3, 1000} {
			groups, raw, cols := makeInput(rng, n, 8, 1, width)
			_, want := refAgg(groups, raw, 8)
			got := make([]int64, 8)
			ScalarSum(groups, cols[0], got)
			if !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("ScalarSum w=%d n=%d: %v vs %v", width, n, got, want[0])
			}
		}
	}
}

// ReduceSum is the one-group sum: every word size, every length around its
// four-value step, and an 8-byte lane whose total wraps modulo 2⁶⁴ as the
// row loops' int64 accumulators do.
func TestReduceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, width := range []uint8{7, 14, 23, 40, 64} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095} {
			groups, raw, cols := makeInput(rng, n, 1, 1, width)
			_, want := refAgg(groups, raw, 1)
			if got := ReduceSum(cols[0]); got != want[0][0] {
				t.Fatalf("w=%d (%d-byte lane) n=%d: %d, want %d", width, cols[0].WordSize, n, got, want[0][0])
			}
		}
	}
	wrap := []uint64{math.MaxUint64, 1 << 63, 1<<63 + 5, 2, math.MaxUint64 - 1, 9}
	var want int64
	for _, v := range wrap {
		want += int64(v)
	}
	if got := ReduceSum(bitpack.MustPack(wrap, 64).UnpackSmallest(nil, 0, len(wrap))); got != want {
		t.Fatalf("wrapping 8-byte lane: %d, want %d", got, want)
	}
}

// ReduceSumMasked sums exactly the rows whose mask byte has its low bit
// set — the rows compaction would keep — at every lane width and every
// tail length, wrapping as ReduceSum does.
func TestReduceSumMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, width := range []uint8{7, 14, 23, 40, 64} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 4096} {
			_, raw, cols := makeInput(rng, n, 1, 1, width)
			mask := make([]byte, n+4) // longer than the batch: only n are read
			var want uint64
			for i := range mask {
				mask[i] = byte(rng.Intn(256))
				if i < n && mask[i]&1 != 0 {
					want += uint64(raw[0][i])
				}
			}
			if got := ReduceSumMasked(cols[0], mask); got != int64(want) {
				t.Fatalf("w=%d (%d-byte lane) n=%d: %d, want %d", width, cols[0].WordSize, n, got, int64(want))
			}
		}
	}
	wrap := []uint64{math.MaxUint64, 1 << 63, 1<<63 + 5, 2, math.MaxUint64 - 1, 9}
	mask := []byte{0xFF, 0xFF, 0, 0xFF, 0xFF, 0xFF}
	var want int64
	for i, v := range wrap {
		if mask[i] != 0 {
			want += int64(v)
		}
	}
	if got := ReduceSumMasked(bitpack.MustPack(wrap, 64).UnpackSmallest(nil, 0, len(wrap)), mask); got != want {
		t.Fatalf("wrapping 8-byte lane: %d, want %d", got, want)
	}
}

func TestScalarMultiColumnLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, nCols := range []int{1, 2, 3, 4, 5, 7} {
		groups, raw, cols := makeInput(rng, 2000, 32, nCols, 14)
		_, want := refAgg(groups, raw, 32)
		for name, fn := range map[string]func([]uint8, []*bitpack.Unpacked, [][]int64){
			"colAtATime":  ScalarSumColumnAtATime,
			"rowAtATime":  ScalarSumRowAtATime,
			"rowUnrolled": ScalarSumRowAtATimeUnrolled,
		} {
			got := make([][]int64, nCols)
			for c := range got {
				got[c] = make([]int64, 32)
			}
			fn(groups, cols, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s nCols=%d mismatch", name, nCols)
			}
		}
	}
}

func TestInRegisterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, numGroups := range []int{1, 2, 3, 8, 16, 32} {
		for _, n := range []int{0, 1, 7, 8, 9, 4096, 10000} {
			groups, _, _ := makeInput(rng, n, numGroups, 0, 8)
			want, _ := refAgg(groups, nil, numGroups)
			got := make([]int64, numGroups)
			InRegisterCount(groups, numGroups, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("InRegisterCount g=%d n=%d: %v vs %v", numGroups, n, got, want)
			}
		}
	}
}

// The flush interval must be exercised: more than 255 words of input per
// group keeps lane counters from wrapping only if flushing works.
func TestInRegisterCountLongInput(t *testing.T) {
	n := 8 * 300 * 2 // well past one flush window
	groups := make([]uint8, n)
	for i := range groups {
		groups[i] = uint8(i % 2)
	}
	got := make([]int64, 2)
	InRegisterCount(groups, 2, got)
	if got[0] != int64(n/2) || got[1] != int64(n/2) {
		t.Fatalf("long input: %v", got)
	}
}

// Skewed input: one group takes nearly every row, stressing per-lane
// counters in a single group register.
func TestInRegisterCountSkew(t *testing.T) {
	n := 100000
	groups := make([]uint8, n)
	groups[500] = 3
	groups[99999] = 3
	got := make([]int64, 8)
	InRegisterCount(groups, 8, got)
	if got[0] != int64(n-2) || got[3] != 2 {
		t.Fatalf("skew: %v", got)
	}
}

func TestInRegisterSums(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, numGroups := range []int{1, 2, 8, 32} {
		for _, n := range []int{0, 1, 5, 8, 4096, 9999} {
			// 1-byte values.
			groups, raw, cols := makeInput(rng, n, numGroups, 1, 8)
			_, want := refAgg(groups, raw, numGroups)
			got := make([]int64, numGroups)
			InRegisterSum8(groups, cols[0].U8, numGroups, got)
			if !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("Sum8 g=%d n=%d: %v vs %v", numGroups, n, got, want[0])
			}
			// 2-byte values.
			groups, raw, cols = makeInput(rng, n, numGroups, 1, 16)
			_, want = refAgg(groups, raw, numGroups)
			got = make([]int64, numGroups)
			InRegisterSum16(groups, cols[0].U16, numGroups, got)
			if !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("Sum16 g=%d n=%d", numGroups, n)
			}
			// 4-byte values.
			groups, raw, cols = makeInput(rng, n, numGroups, 1, 32)
			_, want = refAgg(groups, raw, numGroups)
			got = make([]int64, numGroups)
			InRegisterSum32(groups, cols[0].U32, numGroups, got)
			if !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("Sum32 g=%d n=%d", numGroups, n)
			}
		}
	}
}

// All-max values across a long run exercise the overflow-flush bounds of
// each accumulator width at their worst case.
func TestInRegisterSumOverflowBounds(t *testing.T) {
	n := 8 * 300 // beyond the sum8 flush window of 256 steps
	groups := make([]uint8, n)
	vals8 := make([]uint8, n)
	for i := range vals8 {
		vals8[i] = 255
	}
	got := make([]int64, 1)
	InRegisterSum8(groups, vals8, 1, got)
	if got[0] != int64(n)*255 {
		t.Fatalf("sum8 worst case: %d want %d", got[0], int64(n)*255)
	}
	vals16 := make([]uint16, n)
	for i := range vals16 {
		vals16[i] = 65535
	}
	got = make([]int64, 1)
	InRegisterSum16(groups, vals16, 1, got)
	if got[0] != int64(n)*65535 {
		t.Fatalf("sum16 worst case: %d", got[0])
	}
	vals32 := make([]uint32, n)
	for i := range vals32 {
		vals32[i] = 0xFFFFFFFF
	}
	got = make([]int64, 1)
	InRegisterSum32(groups, vals32, 1, got)
	if got[0] != int64(n)*0xFFFFFFFF {
		t.Fatalf("sum32 worst case: %d", got[0])
	}
}

func TestInRegisterSupported(t *testing.T) {
	if !InRegisterSupported(32, 4) || !InRegisterSupported(1, 1) {
		t.Fatal("should support up to 32 groups, 4-byte values")
	}
	if InRegisterSupported(33, 1) || InRegisterSupported(8, 8) || InRegisterSupported(0, 1) {
		t.Fatal("should reject >32 groups, 8-byte values, 0 groups")
	}
}

func TestInRegisterOpsTable(t *testing.T) {
	// The op counts must grow with value width, the relationship Table 3
	// documents (1.5 → 3 → 7 → 12 instructions per 32 values per group).
	count, s8, s16, s32 := InRegisterOpsPer32Values(0), InRegisterOpsPer32Values(1), InRegisterOpsPer32Values(2), InRegisterOpsPer32Values(4)
	if !(count < s8 && s8 < s16 && s16 < s32) {
		t.Fatalf("ops not increasing: %d %d %d %d", count, s8, s16, s32)
	}
	if InRegisterOpsPer32Values(8) != 0 {
		t.Fatal("8-byte variant is unsupported")
	}
}

func TestSortBasedFullBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, numGroups := range []int{1, 4, 8, 16, 100} {
		for _, n := range []int{0, 1, 2, 3, 4096} {
			for _, width := range []uint8{7, 23, 40} {
				groups := make([]uint8, n)
				for i := range groups {
					groups[i] = uint8(rng.Intn(numGroups))
				}
				mask := uint64(1)<<width - 1
				vals := make([]uint64, n)
				for i := range vals {
					vals[i] = rng.Uint64() & mask
				}
				packed := bitpack.MustPack(vals, width)
				raw := [][]uint64{vals}
				wantCounts, wantSums := refAgg(groups, raw, numGroups)

				sb := NewSortBased(numGroups, -1)
				sb.Prepare(groups, nil)
				counts := make([]int64, numGroups)
				sb.AddCounts(counts)
				if !reflect.DeepEqual(counts, wantCounts) {
					t.Fatalf("sort counts g=%d n=%d", numGroups, n)
				}
				sums := make([]int64, numGroups)
				sb.SumPacked(packed, 0, sums)
				if !reflect.DeepEqual(sums, wantSums[0]) {
					t.Fatalf("sort sums g=%d n=%d w=%d: %v vs %v", numGroups, n, width, sums, wantSums[0])
				}
			}
		}
	}
}

func TestSortBasedWithSegmentOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	nSeg, start, n := 10000, 4096, 4096
	vals := make([]uint64, nSeg)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 23))
	}
	packed := bitpack.MustPack(vals, 23)
	groups := make([]uint8, n)
	for i := range groups {
		groups[i] = uint8(rng.Intn(16))
	}
	batchVals := make([][]uint64, 1)
	batchVals[0] = vals[start : start+n]
	_, want := refAgg(groups, batchVals, 16)
	sb := NewSortBased(16, -1)
	sb.Prepare(groups, nil)
	sums := make([]int64, 16)
	sb.SumPacked(packed, start, sums)
	if !reflect.DeepEqual(sums, want[0]) {
		t.Fatal("segment-offset sums mismatch")
	}
}

func TestSortBasedWithIndexVector(t *testing.T) {
	// Gather-style flow: rows were excluded before sorting, so Prepare
	// receives compacted group ids plus the selection index vector, and
	// SumPacked gathers through original row positions.
	rng := rand.New(rand.NewSource(37))
	n := 4096
	vals := make([]uint64, n)
	allGroups := make([]uint8, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 14))
		allGroups[i] = uint8(rng.Intn(8))
	}
	packed := bitpack.MustPack(vals, 14)
	var idx []int32
	var selGroups []uint8
	wantCounts := make([]int64, 8)
	wantSums := make([]int64, 8)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			idx = append(idx, int32(i))
			selGroups = append(selGroups, allGroups[i])
			wantCounts[allGroups[i]]++
			wantSums[allGroups[i]] += int64(vals[i])
		}
	}
	sb := NewSortBased(8, -1)
	sb.Prepare(selGroups, idx)
	counts := make([]int64, 8)
	sb.AddCounts(counts)
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("idx counts: %v vs %v", counts, wantCounts)
	}
	sums := make([]int64, 8)
	sb.SumPacked(packed, 0, sums)
	if !reflect.DeepEqual(sums, wantSums) {
		t.Fatalf("idx sums: %v vs %v", sums, wantSums)
	}
}

func TestSortBasedSpecialGroupSkip(t *testing.T) {
	// Special-group flow: rejected rows carry the special id and must be
	// rejected during sorting (their bucket is never aggregated).
	rng := rand.New(rand.NewSource(38))
	n := 4096
	numGroups, special := 5, 4
	groups := make([]uint8, n)
	vals := make([]uint64, n)
	wantCounts := make([]int64, numGroups)
	wantSums := make([]int64, numGroups)
	for i := range groups {
		g := rng.Intn(numGroups) // includes the special id
		groups[i] = uint8(g)
		vals[i] = uint64(rng.Intn(1000))
		if g != special {
			wantCounts[g]++
			wantSums[g] += int64(vals[i])
		}
	}
	packed := bitpack.MustPack(vals, 10)
	sb := NewSortBased(numGroups, special)
	sb.Prepare(groups, nil)
	counts := make([]int64, numGroups)
	sb.AddCounts(counts)
	sums := make([]int64, numGroups)
	sb.SumPacked(packed, 0, sums)
	if counts[special] != 0 || sums[special] != 0 {
		t.Fatal("special group leaked into results")
	}
	if !reflect.DeepEqual(counts, wantCounts) || !reflect.DeepEqual(sums, wantSums) {
		t.Fatal("special-group skip results mismatch")
	}
	// SumUnpacked must agree with SumPacked, and sum an 8-byte column as
	// the signed values it holds in two's complement.
	u := packed.UnpackSmallest(nil, 0, n)
	sums2 := make([]int64, numGroups)
	sb.SumUnpacked(u, sums2)
	if !reflect.DeepEqual(sums2, wantSums) {
		t.Fatal("SumUnpacked mismatch")
	}
	signed := bitpack.NewUnpacked(64, n)
	for i, v := range vals {
		signed.U64[i] = uint64(-int64(v))
	}
	sums3 := make([]int64, numGroups)
	sb.SumUnpacked(signed, sums3)
	for g := range sums3 {
		if sums3[g] != -wantSums[g] {
			t.Fatalf("SumUnpacked of negated values: group %d = %d, want %d", g, sums3[g], -wantSums[g])
		}
	}
}

func TestSortBasedPrepareReuse(t *testing.T) {
	sb := NewSortBased(4, -1)
	sb.Prepare([]uint8{0, 1, 2, 3, 0, 1}, nil)
	first := sb.Counts()[0]
	if first != 2 {
		t.Fatalf("counts[0]=%d", first)
	}
	sb.Prepare([]uint8{3, 3}, nil)
	if sb.Counts()[3] != 2 || sb.Counts()[0] != 0 {
		t.Fatal("Prepare must reset state between batches")
	}
}

// runMulti accumulates one batch through a fresh MultiAgg and returns its
// counts and sums.
func runMulti(t *testing.T, numGroups, skip int, ws []int, groups []uint8, cols []*bitpack.Unpacked) ([]int64, [][]int64) {
	t.Helper()
	m, err := NewMultiAgg(numGroups, skip, ws)
	if err != nil {
		t.Fatalf("layout %v rejected: %v", ws, err)
	}
	m.Accumulate(groups, cols)
	sums := make([][]int64, len(ws))
	for c := range sums {
		sums[c] = make([]int64, numGroups)
	}
	m.AddSums(sums)
	counts := make([]int64, numGroups)
	m.AddCounts(counts)
	return counts, sums
}

// oldMultiFits is the admission rule of the 256-bit register row the
// carrier layout replaced: 4- and 8-byte inputs took a word, narrower ones
// half a word, four words in all.
func oldMultiFits(ws []int) bool {
	words, halves := 0, 0
	for _, w := range ws {
		if w >= 4 {
			words++
		} else {
			halves++
		}
	}
	return len(ws) > 0 && words+(halves+1)/2 <= 4
}

func TestMultiAggLayouts(t *testing.T) {
	// The paper's Table 4 size mixes (in bytes), the benchmark ladder's and
	// Q1's shapes, edge layouts, 4-byte slots ahead of 8-byte ones — and
	// every list the old rule accepted, as multisets in two slot orders.
	layouts := [][]int{
		{8, 2}, {8, 4, 1}, {8, 8, 4, 2}, {8, 4, 4, 2, 2}, {4, 4, 2, 2, 2},
		{4, 4, 4, 4}, {1, 4, 4, 8, 1}, {1, 4, 1}, {8, 8, 8, 8}, {4, 8}, {1, 4, 8, 4},
		{1}, {2}, {4}, {8}, {1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2, 2, 2},
	}
	sizes := []int{1, 2, 4, 8}
	var enum func(from int, ws []int)
	enum = func(from int, ws []int) {
		if len(ws) > 0 {
			if !oldMultiFits(ws) {
				return
			}
			up := append([]int(nil), ws...)
			down := make([]int, len(ws))
			for i, w := range ws {
				down[len(ws)-1-i] = w
			}
			layouts = append(layouts, up, down)
		}
		for k := from; k < len(sizes); k++ {
			enum(k, append(ws, sizes[k]))
		}
	}
	enum(0, nil)

	rng := rand.New(rand.NewSource(39))
	ran, refused := map[walkShape]bool{}, map[string]bool{}
	for _, ws := range layouts {
		l, err := NewMultiLayout(7, -1, ws)
		if err != nil {
			t.Fatalf("layout %v rejected: %v", ws, err)
		}
		// The no-carry guard: every narrow field is its lane plus fieldSpare
		// bits, fields of one word are disjoint, and word 0's stay under the
		// count. swarwidth cannot see these shifts (they are plan-time
		// values, not constants in a width-named kernel), so this is it.
		var used [maxRowWords]uint64
		used[0] = (1<<countBits - 1) << countShift
		for c, s := range l.slots {
			if s.word >= l.RowWords() {
				t.Fatalf("layout %v: slot %d in word %d of %d", ws, c, s.word, l.RowWords())
			}
			if ws[c] < 4 && s.bits < uint(8*ws[c]+16) {
				t.Fatalf("layout %v: slot %d has %d bits for a %d-byte lane", ws, c, s.bits, ws[c])
			}
			if ws[c] >= 4 && (s.bits != 64 || s.shift != 0 || s.word < l.ncarrier) {
				t.Fatalf("layout %v: wide slot %d does not own a word: %+v", ws, c, s)
			}
			field := (uint64(1)<<s.bits - 1) << s.shift
			if s.shift+s.bits > 64 || used[s.word]&field != 0 {
				t.Fatalf("layout %v: slot %d overlaps: %+v", ws, c, s)
			}
			used[s.word] |= field
		}
		// Whole words go 8-byte first: addRows has a loop per count of each.
		for c, s := range l.slots {
			for d, u := range l.slots {
				if ws[c] == 8 && ws[d] == 4 && s.word > u.word {
					t.Fatalf("layout %v: 8-byte slot %d in word %d, after 4-byte slot %d in word %d", ws, c, s.word, d, u.word)
				}
			}
		}

		n := 300 + rng.Intn(2*tileRows)
		groups := make([]uint8, n)
		for i := range groups {
			groups[i] = uint8(rng.Intn(7))
		}
		raw := make([][]uint64, len(ws))
		cols := make([]*bitpack.Unpacked, len(ws))
		for c, w := range ws {
			width := uint8(w * 8)
			if w == 8 {
				width = 40 // keep 8-byte sums comfortably inside int64
			}
			mask := uint64(1)<<width - 1
			raw[c] = make([]uint64, n)
			for i := range raw[c] {
				raw[c][i] = rng.Uint64() & mask
			}
			cols[c] = bitpack.MustPack(raw[c], width).UnpackSmallest(nil, 0, n)
		}
		wantCounts, want := refAgg(groups, raw, 7)
		gotCounts, got := runMulti(t, 7, -1, ws, groups, cols)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("layout %v sums mismatch", ws)
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Fatalf("layout %v counts %v want %v", ws, gotCounts, wantCounts)
		}
		checkProductLayouts(t, rng, ws, l, groups, raw, cols, ran, refused)
	}
	// Both walks ran, and products beside another read word, on a base the
	// shape does not have, or beside narrow columns the carrier cannot hold
	// with the factor were refused.
	for _, s := range []walkShape{walk1P, walk2RC} {
		if !ran[s] {
			t.Errorf("no layout ran product walk %d", s)
		}
	}
	for _, why := range []string{"one product, summed base", "one product, another wide word", "pair, base of its own", "pair, another wide word", "factor carrier"} {
		if !refused[why] {
			t.Errorf("no layout refused products for %q", why)
		}
	}
}

// checkProductLayouts makes every wide column of ws a product word — on a
// base vector of its own, on each other 4-byte column as its base, and with
// each 8-byte column chained on it, the first factor a vector of its own or
// each byte column the row sums — and holds NewProductLayout to the two
// walk shapes and the carrier they build: what it admits must run the shape
// the rule names, carry the factor at bit 0 and match refAgg over the
// materialized products; the rest must be refused, counted in refused by
// reason. A 4-byte product's operands keep it exact in its lane, bounding a
// base column where it has one; an 8-byte one is negated both sides and
// wraps.
func checkProductLayouts(t *testing.T, rng *rand.Rand, ws []int, plain *MultiLayout, groups []uint8, raw [][]uint64, cols []*bitpack.Unpacked, ran map[walkShape]bool, refused map[string]bool) {
	t.Helper()
	n := len(groups)
	wide := 0
	for _, w := range ws {
		if w >= 4 {
			wide++
		}
	}
	var shapes [][]Product
	for a, wa := range ws {
		if wa < 4 {
			continue
		}
		bases := []int{-1}
		for b, wb := range ws {
			if wb == 4 && b != a {
				bases = append(bases, b)
			}
		}
		for _, base := range bases {
			shapes = append(shapes, []Product{{Col: a, X: base}})
			for c, wc := range ws {
				if wc == 8 && c != a && c != base {
					shapes = append(shapes, []Product{{Col: a, X: base}, {Col: c, NegX: c%2 == 0}})
				}
			}
		}
	}
	factors := []int{-1}
	for c, w := range ws {
		if w == 1 {
			factors = append(factors, c)
		}
	}
	var sets [][]Product
	for _, shape := range shapes {
		for _, y := range factors {
			set := append([]Product(nil), shape...)
			set[0].Y = y
			sets = append(sets, set)
		}
	}
	for _, set := range sets {
		in := append([]*bitpack.Unpacked(nil), cols...)
		want := append([][]uint64(nil), raw...)
		prev := make([]uint64, n)
		ownBase := set[0].X < 0
		for j := range set {
			p := &set[j]
			in[p.Col] = nil
			if ws[p.Col] == 4 {
				p.AddX, p.AddY = 5, 3 // (x + 5)·(y + 3) < 2^29
			} else {
				p.AddY, p.NegY = 100, true
				if j == 0 {
					p.NegX, p.AddX = true, -1<<40
				}
			}
			xs, ys := make([]uint64, n), make([]uint64, n)
			for i := range xs {
				xs[i], ys[i] = rng.Uint64()&(1<<20-1), rng.Uint64()&0xFF
			}
			switch {
			case j == 1:
			case p.X >= 0: // a base column, bounded for the product's sake
				want[p.X], in[p.X] = xs, bitpack.MustPack(xs, 32).UnpackSmallest(nil, 0, n)
			default:
				p.X = len(in)
				in = append(in, bitpack.MustPack(xs, 32).UnpackSmallest(nil, 0, n))
			}
			if j == 0 && p.Y >= 0 { // a byte column the row sums
				ys = raw[p.Y]
			} else {
				p.Y = len(in)
				in = append(in, bitpack.MustPack(ys, 8).UnpackSmallest(nil, 0, n))
			}
			vals := make([]uint64, n)
			for i := range vals {
				x := prev[i]
				if j == 0 {
					x = xs[i]
				}
				vals[i] = (signOf(p.NegX)*x + uint64(p.AddX)) * (signOf(p.NegY)*ys[i] + uint64(p.AddY))
			}
			want[p.Col], prev = vals, vals
		}
		// The rule, written out: either a lone wide word that is a product
		// on a base of its own, or three that are a base, a product on it
		// and one chained on that; and one carrier word, holding the first
		// factor and at most one byte column beside it.
		beside, narrowOK := 0, true
		for c, w := range ws {
			if w < 4 && c != set[0].Y {
				beside++
				narrowOK = narrowOK && w == 1
			}
		}
		shape, why := walkRead, ""
		switch {
		case len(set) == 1 && !ownBase:
			why = "one product, summed base"
		case len(set) == 1 && wide > 1:
			why = "one product, another wide word"
		case len(set) == 1:
			shape = walk1P
		case ownBase:
			why = "pair, base of its own"
		case wide > 3:
			why = "pair, another wide word"
		default:
			shape = walk2RC
		}
		if shape != walkRead && (!narrowOK || beside > 1) {
			shape, why = walkRead, "factor carrier"
		}
		l, err := NewProductLayout(7, -1, ws, set)
		if (err == nil) != (shape != walkRead) {
			t.Fatalf("layout %v products %+v: err %v, want walk %d", ws, set, err, shape)
		}
		if err != nil {
			refused[why] = true
			continue
		}
		if l.walk != shape {
			t.Fatalf("layout %v products %+v: walk %d, want %d", ws, set, l.walk, shape)
		}
		ran[shape] = true
		if l.RowWords() != plain.RowWords() {
			t.Fatalf("layout %v products %+v: %d words, %d without products", ws, set, l.RowWords(), plain.RowWords())
		}
		read := plain.RowWords() - len(set)
		for j, p := range set {
			if s := l.slots[p.Col]; s.word != read+j || s.bits != 64 || s.shift != 0 {
				t.Fatalf("layout %v products %+v: product %d in %+v, want word %d", ws, set, j, s, read+j)
			}
		}
		if !ownBase && l.slots[set[0].X].word != read-1 {
			t.Fatalf("layout %v products %+v: the base is not the last read word", ws, set)
		}
		for c, w := range ws {
			if s := l.slots[c]; w == 1 && (s.word != 0 || s.bits != byteField || (s.shift == 0) != (c == set[0].Y) || s.shift%byteField != 0) {
				t.Fatalf("layout %v products %+v: byte column %d in %+v, want the factor at bit 0 and the other at %d", ws, set, c, s, byteField)
			}
		}
		m := l.NewState()
		m.Accumulate(groups, in)
		got := make([][]int64, len(ws))
		for c := range got {
			got[c] = make([]int64, 7)
		}
		m.AddSums(got)
		gotCounts := make([]int64, 7)
		m.AddCounts(gotCounts)
		wantCounts, wantSums := refAgg(groups, want, 7)
		if !reflect.DeepEqual(got, wantSums) || !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Fatalf("layout %v products %+v: sums %v want %v", ws, set, got, wantSums)
		}
	}
}

func TestProductLayoutRejectsMalformed(t *testing.T) {
	q1 := []int{1, 4, 4, 8, 1} // inputs 5.. are vectors of their own
	for _, c := range []struct {
		ws    []int
		prods []Product
	}{
		{q1, []Product{{Col: 0, X: 5, Y: 6}}},                                      // a 1-byte column
		{q1, []Product{{Col: 5, X: 5, Y: 6}}},                                      // no such column
		{q1, []Product{{Col: 2, X: 1, Y: 1}, {Col: 3, Y: 4}}},                      // a 4-byte factor
		{q1, []Product{{Col: 2, X: 1, Y: -1}, {Col: 3, Y: 4}}},                     // no factor
		{q1, []Product{{Col: 2, X: 3, Y: 0}, {Col: 1, Y: 4}}},                      // an 8-byte base
		{q1, []Product{{Col: 2, X: -1, Y: 0}, {Col: 3, Y: 4}}},                     // no base
		{q1, []Product{{Col: 2, X: 1, Y: 0}, {Col: 3, Y: 4, AddX: 1}}},             // a chain's addend
		{q1, []Product{{Col: 2, X: 1, Y: 0}, {Col: 1, Y: 4}}},                      // the base is the second
		{q1, []Product{{Col: 2, X: 1, Y: 0}, {Col: 3, Y: 4}, {Col: 1, Y: 4}}},      // three
		{q1, []Product{{Col: 2, X: 5, Y: 0}, {Col: 3, Y: 4}}},                      // a pair on a base of its own
		{q1, []Product{{Col: 2, X: 1, Y: 0}}},                                      // one product, summed base
		{[]int{1, 4, 8}, []Product{{Col: 1, X: 3, Y: 0}}},                          // one product beside a read word
		{[]int{1, 1, 2, 4}, []Product{{Col: 3, X: 4, Y: 0}}},                       // a second carrier word
		{[]int{2, 4}, []Product{{Col: 1, X: 2, Y: 3}}},                             // a 2-byte field beside the factor
		{[]int{1, 1, 4}, []Product{{Col: 2, X: 3, Y: 4}}},                          // two byte columns beside the factor
		{[]int{1, 4, 4, 8, 4, 1}, []Product{{Col: 2, X: 1, Y: 0}, {Col: 3, Y: 5}}}, // a pair beside a read word
	} {
		if _, err := NewProductLayout(4, -1, c.ws, c.prods); err == nil {
			t.Errorf("%v with %+v: want an error", c.ws, c.prods)
		}
	}
	// Q1: disc_price on price and discount, charge chained on it and tax;
	// the serving mix's Q1: disc_price alone, on a price no slot sums.
	for _, c := range []struct {
		ws    []int
		prods []Product
		walk  walkShape
	}{
		{q1, []Product{{Col: 2, X: 1, Y: 4, AddX: 90000, NegY: true, AddY: 100}, {Col: 3, Y: 5, AddY: 100}}, walk2RC},
		{[]int{1, 4, 1}, []Product{{Col: 1, X: 3, Y: 2, NegY: true, AddY: 100}}, walk1P},
	} {
		if l, err := NewProductLayout(4, -1, c.ws, c.prods); err != nil || l.walk != c.walk {
			t.Errorf("%v with %+v: %v, want walk %d", c.ws, c.prods, err, c.walk)
		}
	}
}

func TestMultiAggRejectsOverflowingRow(t *testing.T) {
	// Five 8-byte slots plus the carrier are six words.
	if _, err := NewMultiAgg(4, -1, []int{8, 8, 8, 8, 8}); err == nil {
		t.Fatal("expected row-overflow error")
	}
	// Eleven 1-byte fields: two beside the count, then two a word → six.
	if _, err := NewMultiAgg(4, -1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}); err == nil {
		t.Fatal("expected row-overflow error for eleven byte fields")
	}
	// Four 8-byte slots and the count-only carrier exactly fill the row.
	if _, err := NewMultiAgg(4, -1, []int{8, 8, 8, 8}); err != nil {
		t.Fatal("four wide slots should fit")
	}
	if multiFits([]int{8, 8, 8, 8, 8}) || !multiFits([]int{8, 8, 8, 8}) || multiFits(nil) {
		t.Fatal("multiFits disagrees with the layout")
	}
}

func TestMultiAggFlushBoundary(t *testing.T) {
	// Push lane maxima past the 65535-row flush boundary; any missed flush
	// overflows a field and corrupts its word neighbor. Once as one batch,
	// where the boundary falls inside a tile, and once a row at a time, where
	// it falls between two Accumulate calls: for the read walk's carrier
	// tile and for both product walks, whose carrier holds a byte column and
	// the factor (and, in the serving mix's 1P row, only those).
	const n = 70000
	const x = math.MaxUint32 / 255 // a base whose product with a byte factor tops its 4-byte lane
	type input struct {
		size int    // 0: a product's column, which the walk does not read
		v    uint64 // the value on every row
	}
	for _, c := range []struct {
		ws    []int
		prods []Product
		in    []input // the columns' vectors, then those only products read
		want  []int64 // each column's value on every row
	}{
		{ws: []int{1, 2, 1}, in: []input{{1, 255}, {2, 65535}, {1, 255}}, want: []int64{255, 65535, 255}},
		{ws: []int{1, 4, 1}, prods: []Product{{Col: 1, X: 3, Y: 2}},
			in: []input{{1, 255}, {}, {1, 255}, {4, x}}, want: []int64{255, x * 255, 255}},
		{ws: []int{1, 4, 4, 8, 1}, prods: []Product{{Col: 2, X: 1, Y: 4}, {Col: 3, Y: 5}},
			in: []input{{1, 255}, {4, x}, {}, {}, {1, 255}, {1, 255}}, want: []int64{255, x, x * 255, x * 255 * 255, 255}},
	} {
		l, err := NewProductLayout(1, -1, c.ws, c.prods)
		if err != nil {
			t.Fatal(err)
		}
		if (l.walk == walkRead) != (c.prods == nil) {
			t.Fatalf("%v %+v: walk %d", c.ws, c.prods, l.walk)
		}
		batch, one := make([]*bitpack.Unpacked, len(c.in)), make([]*bitpack.Unpacked, len(c.in))
		for i, in := range c.in {
			if in.size == 0 {
				continue
			}
			vals := make([]uint64, n)
			for r := range vals {
				vals[r] = in.v
			}
			batch[i] = bitpack.MustPack(vals, uint8(8*in.size)).UnpackSmallest(nil, 0, n)
			one[i] = bitpack.MustPack(vals[:1], uint8(8*in.size)).UnpackSmallest(nil, 0, 1)
		}
		check := func(how string, m *MultiAgg) {
			t.Helper()
			got := make([][]int64, len(c.ws))
			for col := range got {
				got[col] = make([]int64, 1)
			}
			counts := make([]int64, 1)
			m.AddSums(got)
			m.AddCounts(counts)
			for col, v := range c.want {
				if got[col][0] != n*v {
					t.Fatalf("%v %s: flush boundary: sum %d = %d want %d", c.ws, how, col, got[col][0], n*v)
				}
			}
			if counts[0] != n {
				t.Fatalf("%v %s: flush boundary: count %d want %d", c.ws, how, counts[0], n)
			}
		}
		groups := make([]uint8, n)
		m := l.NewState()
		m.Accumulate(groups, batch)
		check("one batch", m)
		for i := 0; i < n; i++ {
			m.Accumulate(groups[:1], one)
		}
		check("row at a time", m)
	}
}

func TestMultiAggExplicitFlush(t *testing.T) {
	// Flush mid-stream must fold the register rows into the 64-bit totals
	// and clear the rows, so accumulation can continue and AddSums still
	// reports the grand total.
	n := 1000
	groups := make([]uint8, n)
	vals := make([]uint64, n)
	for i := range vals {
		groups[i] = uint8(i % 3)
		vals[i] = uint64(i % 200)
	}
	cols := []*bitpack.Unpacked{bitpack.MustPack(vals, 8).UnpackSmallest(nil, 0, n)}
	want := make([]int64, 3)
	for i, g := range groups {
		want[g] += int64(vals[i])
	}
	m, err := NewMultiAgg(3, -1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	m.Accumulate(groups, cols)
	m.Flush()
	m.Accumulate(groups, cols) // second pass after explicit flush
	got := [][]int64{make([]int64, 3)}
	m.AddSums(got)
	for g := range want {
		if got[0][g] != 2*want[g] {
			t.Fatalf("group %d: %d want %d", g, got[0][g], 2*want[g])
		}
	}
}

func TestMultiAggPairedHalvesIsolation(t *testing.T) {
	// Fields that share a carrier word — two byte fields under the count in
	// word 0, two 2-byte fields in word 1 — must never bleed into each other
	// or into the count, with one of each pair at its lane maximum for more
	// than a whole flush interval.
	n := maxRowsBetweenFlushes + 5000
	groups := make([]uint8, n)
	ws := []int{2, 1, 2, 1, 2}
	top := []uint64{65535, 255, 0, 0, 65535}
	cols := make([]*bitpack.Unpacked, len(ws))
	for c, w := range ws {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = top[c]
		}
		cols[c] = bitpack.MustPack(vals, uint8(8*w)).UnpackSmallest(nil, 0, n)
	}
	counts, got := runMulti(t, 1, -1, ws, groups, cols)
	for c := range ws {
		if got[c][0] != int64(n)*int64(top[c]) {
			t.Fatalf("fields bled: %v", got)
		}
	}
	if counts[0] != int64(n) {
		t.Fatalf("count %d want %d", counts[0], n)
	}
}

func TestMultiAggSpecialGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := 3000
	numGroups, special := 5, 4
	groups := make([]uint8, n)
	vals := make([]uint64, n)
	want := make([]int64, numGroups)
	for i := range groups {
		groups[i] = uint8(rng.Intn(numGroups))
		vals[i] = uint64(rng.Intn(100))
		if int(groups[i]) != special {
			want[groups[i]] += int64(vals[i])
		}
	}
	cols := []*bitpack.Unpacked{bitpack.MustPack(vals, 7).UnpackSmallest(nil, 0, n)}
	m, err := NewMultiAgg(numGroups, special, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	m.Accumulate(groups, cols)
	got := [][]int64{make([]int64, numGroups)}
	m.AddSums(got)
	if got[0][special] != 0 {
		t.Fatal("special group leaked")
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("special-group sums: %v vs %v", got[0], want)
	}
}

func TestMultiAggRowWords(t *testing.T) {
	for _, tc := range []struct {
		ws    []int
		words int
	}{
		{[]int{8, 2}, 2},          // carrier {count, 2-byte field} + one value word
		{[]int{1, 1}, 1},          // both byte fields ride under the count
		{[]int{2, 2}, 2},          // the second 2-byte field opens a carrier word
		{[]int{1, 4, 4, 8, 1}, 4}, // Q1
		{[]int{4, 4, 4, 4}, 5},    // a count-only carrier plus four value words
		{[]int{2, 2, 2, 2, 2, 2, 2, 2}, 5},
	} {
		m, err := NewMultiAgg(1, -1, tc.ws)
		if err != nil {
			t.Fatal(err)
		}
		if m.RowWords() != tc.words {
			t.Fatalf("%v layout rows=%d want %d", tc.ws, m.RowWords(), tc.words)
		}
	}
}

func TestStrategyChoose(t *testing.T) {
	// The rule's borders sit where this implementation's SWAR kernels put
	// them (see strategy.go), so they fall at smaller group counts than
	// the paper's 32-lane AVX2 ones.
	for _, tc := range []struct {
		name string
		p    Params
		want Strategy
	}{
		// Tiny group domains with narrow values → in-register.
		{"2g/1B/1sum", Params{Groups: 2, Sums: 1, MaxWordSize: 1, WordSizes: []int{1}}, StrategyInRegister},
		// One more group and the per-group cost overtakes the row loop.
		{"4g/1B/1sum", Params{Groups: 4, Sums: 1, MaxWordSize: 1, WordSizes: []int{1}}, StrategyScalar},
		// Count-only: the COUNT pass is the same whichever loop runs it,
		// and the tie stays with scalar (the engine picks the count kernel
		// by domain).
		{"count-only 2g", Params{Groups: 2, Sums: 0, MaxWordSize: 1}, StrategyScalar},
		// Larger group domains → one walk with the count in the carrier
		// beats the scalar row loop plus its COUNT pass.
		{"32g/4B/2sums", Params{Groups: 32, Sums: 2, MaxWordSize: 4, WordSizes: []int{4, 4}}, StrategyMultiAggregate},
		{"64g/1B/6sums", Params{Groups: 64, Sums: 6, MaxWordSize: 1, WordSizes: []int{1, 1, 1, 1, 1, 1}}, StrategyMultiAggregate},
		// Q1's five inputs, and the serving mix's three.
		{"Q1", Params{Groups: 7, Sums: 5, MaxWordSize: 8, WordSizes: []int{1, 4, 4, 8, 1}}, StrategyMultiAggregate},
		{"mix", Params{Groups: 7, Sums: 3, MaxWordSize: 8, WordSizes: []int{1, 4, 1}}, StrategyMultiAggregate},
		// In-register is never chosen where it is unsupported.
		{"64g/1B/1sum", Params{Groups: 64, Sums: 1, MaxWordSize: 1, WordSizes: []int{1}}, StrategyScalar},
		{"4g/8B/1sum", Params{Groups: 4, Sums: 1, MaxWordSize: 8, WordSizes: []int{8}}, StrategyScalar},
		// Multi-aggregate is never chosen when the row cannot fit.
		{"oversized row", Params{Groups: 200, Sums: 6, MaxWordSize: 8, WordSizes: []int{8, 8, 8, 8, 8, 8}}, StrategyScalar},
	} {
		if got := Choose(tc.p); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}

	// The rule is the static prices' winner. Over groups × 0–6 sums ×
	// every word-size list, the pick costs no more under StaticCost() than
	// any strategy that applies there — so sort-based, which the rule
	// never picks, wins nowhere — and one group, and only one, reduces.
	cp := StaticCost()
	sizes := []int{1, 2, 4, 8}
	points := 0
	for sums := 0; sums <= 6; sums++ {
		lists := 1
		for range sums {
			lists *= len(sizes)
		}
		for code := range lists {
			ws := make([]int, sums)
			maxWS := 1
			for i, c := 0, code; i < sums; i, c = i+1, c/len(sizes) {
				ws[i] = sizes[c%len(sizes)]
				maxWS = max(maxWS, ws[i])
			}
			for _, g := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 64, 128, 255, 256, 257} {
				p := Params{Groups: g, Sums: sums, MaxWordSize: maxWS, WordSizes: ws}
				got := Choose(p)
				if (got == StrategyReduce) != (g == 1) {
					t.Fatalf("%dg/%v: %v", g, ws, got)
				}
				applies := []Strategy{StrategyScalar}
				if g == 1 {
					applies = append(applies, StrategyReduce)
				}
				if InRegisterSupported(g, maxWS) {
					applies = append(applies, StrategyInRegister)
				}
				if sums >= 1 && g <= MaxSortGroups {
					applies = append(applies, StrategySortBased)
				}
				if sums >= 2 && multiFits(ws) {
					applies = append(applies, StrategyMultiAggregate)
				}
				if !slices.Contains(applies, got) {
					t.Fatalf("%dg/%v: %v does not apply", g, ws, got)
				}
				pick := EstimateCost(got, p, &cp)
				for _, s := range applies {
					if c := EstimateCost(s, p, &cp); c < pick {
						t.Fatalf("%dg/%v: rule picks %v at %.2f, %v costs %.2f", g, ws, got, pick, s, c)
					}
				}
				points++
			}
		}
	}
	t.Logf("%d points agree with the static prices", points)
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyScalar: "Scalar", StrategySortBased: "Sort",
		StrategyInRegister: "Register", StrategyMultiAggregate: "Multi",
		StrategyReduce: "Reduce", Strategy(99): "Unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d: %q", s, s.String())
		}
	}
}

func TestEstimateCostShapes(t *testing.T) {
	staticCost := StaticCost()
	// In-register cost grows linearly with groups (both domains are past
	// in-register counting, so the COUNT term is the same flat one).
	p := Params{Sums: 1, MaxWordSize: 1}
	p.Groups = 4
	c4 := EstimateCost(StrategyInRegister, p, &staticCost)
	p.Groups = 32
	c32 := EstimateCost(StrategyInRegister, p, &staticCost)
	if perGroup := (c32 - c4) / 28; perGroup < 0.99*staticCost.InRegPerGroup1 || perGroup > 1.01*staticCost.InRegPerGroup1 {
		t.Errorf("in-register not linear in groups: %v vs %v", c4, c32)
	}
	// The strategies that count in their own pass carry no COUNT term; the
	// others carry the kernel the engine runs for the domain.
	p = Params{Groups: 2, Sums: 0}
	if got, want := EstimateCost(StrategyScalar, p, &staticCost), 2*staticCost.CountInRegPerGroup; got != want {
		t.Errorf("count-only scalar at 2 groups = %v, want %v", got, want)
	}
	p.Groups = 7
	if got := EstimateCost(StrategyInRegister, Params{Groups: 7, Sums: 0, MaxWordSize: 1}, &staticCost); got != staticCost.CountScalar {
		t.Errorf("count-only in-register at 7 groups = %v, want %v", got, staticCost.CountScalar)
	}
	if got := EstimateCost(StrategyMultiAggregate, p, &staticCost); got != staticCost.MultiFixed {
		t.Errorf("count-only multi = %v, want the walk alone %v", got, staticCost.MultiFixed)
	}
	// The reduction's COUNT is one add a batch: it prices its sums alone.
	if got := EstimateCost(StrategyReduce, Params{Groups: 1}, &staticCost); got != 0 {
		t.Errorf("count-only reduce = %v, want 0", got)
	}
	if got, want := EstimateCost(StrategyReduce, Params{Groups: 1, Sums: 3, MaxWordSize: 4}, &staticCost), 3*staticCost.ReducePerSum; got != want {
		t.Errorf("3-sum reduce = %v, want %v", got, want)
	}
	// Multi-aggregate per-sum cost falls with more sums.
	p = Params{Groups: 32, MaxWordSize: 4}
	p.Sums = 1
	m1 := EstimateCost(StrategyMultiAggregate, p, &staticCost)
	p.Sums = 5
	m5 := EstimateCost(StrategyMultiAggregate, p, &staticCost) / 5
	if m5 >= m1 {
		t.Errorf("multi per-sum cost should amortize: %v vs %v", m1, m5)
	}
	// Sort-based per-sum cost also amortizes its fixed sort.
	p.Sums = 1
	s1 := EstimateCost(StrategySortBased, p, &staticCost)
	p.Sums = 4
	s4 := EstimateCost(StrategySortBased, p, &staticCost) / 4
	if s4 >= s1 {
		t.Errorf("sort per-sum cost should amortize: %v vs %v", s1, s4)
	}
}
