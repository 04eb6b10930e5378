package encoding

import (
	"math"
	"math/rand"
	"testing"

	"bipie/internal/bitpack"
	"bipie/internal/sel"
)

// runnyValues builds a value sequence with run lengths in [1, maxRun] drawn
// from a small value domain, so runs both repeat and alternate.
func runnyValues(rng *rand.Rand, n, card, maxRun int) []int64 {
	vals := make([]int64, 0, n)
	for len(vals) < n {
		v := int64(rng.Intn(card)) - int64(card/2)
		run := 1 + rng.Intn(maxRun)
		for i := 0; i < run && len(vals) < n; i++ {
			vals = append(vals, v)
		}
	}
	return vals
}

// TestRLESumRangeBoundaries exercises SumSpans over one span covering a
// whole range — the span path's sum of an unfiltered batch — at run
// boundaries: ranges straddling run ends, single-run ranges, single-row
// ranges, empty ranges, and the full column.
func TestRLESumRangeBoundaries(t *testing.T) {
	vals := []int64{5, 5, 5, -2, -2, 7, 7, 7, 7, 0, 3}
	c := NewRLE(vals)
	if c.Runs() != 5 {
		t.Fatalf("runs = %d, want 5", c.Runs())
	}
	sumRange := func(start, n int) int64 {
		return c.SumSpans(start, []sel.Span{{End: int32(n)}})
	}
	oracle := func(start, n int) int64 {
		var s int64
		for i := start; i < start+n; i++ {
			s += vals[i]
		}
		return s
	}
	cases := [][2]int{
		{0, 0}, {5, 0}, {11, 0}, // empty, including at the end boundary
		{0, 3}, {3, 2}, {5, 4}, // exact single runs
		{1, 1}, {4, 1}, {10, 1}, // single rows
		{2, 2}, {2, 4}, {4, 3}, {8, 3}, // straddling run ends
		{0, 11}, // whole column
	}
	for _, tc := range cases {
		if got, want := sumRange(tc[0], tc[1]), oracle(tc[0], tc[1]); got != want {
			t.Errorf("SumSpans(%d, [0,%d)) = %d, want %d", tc[0], tc[1], got, want)
		}
	}
	// Exhaustive sweep over every (start, n).
	for start := 0; start <= len(vals); start++ {
		for n := 0; start+n <= len(vals); n++ {
			if got, want := sumRange(start, n), oracle(start, n); got != want {
				t.Fatalf("SumSpans(%d, [0,%d)) = %d, want %d", start, n, got, want)
			}
		}
	}
}

func TestRLEZoneBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	vals := runnyValues(rng, 500, 9, 12)
	c := NewRLE(vals)
	for trial := 0; trial < 400; trial++ {
		start := rng.Intn(len(vals))
		n := 1 + rng.Intn(len(vals)-start)
		mn, mx := c.ZoneBounds(start, n)
		wantMn, wantMx := vals[start], vals[start]
		for _, v := range vals[start : start+n] {
			if v < wantMn {
				wantMn = v
			}
			if v > wantMx {
				wantMx = v
			}
		}
		if mn != wantMn || mx != wantMx {
			t.Fatalf("ZoneBounds(%d,%d) = [%d,%d], want [%d,%d]", start, n, mn, mx, wantMn, wantMx)
		}
	}
}

func TestRLECmpSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ops := []RunCmp{RunLE, RunGE, RunEQ, RunNE}
	hit := func(op RunCmp, v, t int64) bool {
		switch op {
		case RunLE:
			return v <= t
		case RunGE:
			return v >= t
		case RunEQ:
			return v == t
		default:
			return v != t
		}
	}
	for trial := 0; trial < 300; trial++ {
		vals := runnyValues(rng, 1+rng.Intn(300), 7, 10)
		c := NewRLE(vals)
		start := rng.Intn(len(vals))
		n := rng.Intn(len(vals) - start)
		op := ops[rng.Intn(len(ops))]
		thr := int64(rng.Intn(9)) - 4
		dst := make([]sel.Span, n/2+1)
		k := c.CmpSpans(dst, op, thr, start, n)
		spans := dst[:k]
		// Expand and compare against the decoded oracle.
		got := make([]bool, n)
		for _, s := range spans {
			if s.Start >= s.End {
				t.Fatalf("empty span %v", s)
			}
			for i := s.Start; i < s.End; i++ {
				got[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if want := hit(op, vals[start+i], thr); got[i] != want {
				t.Fatalf("op=%d t=%d row %d: got %v want %v", op, thr, i, got[i], want)
			}
		}
		// Maximality: spans never touch.
		for i := 1; i < k; i++ {
			if spans[i].Start <= spans[i-1].End {
				t.Fatalf("spans not maximal: %v", spans)
			}
		}
	}
}

func TestRLESumSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 300; trial++ {
		vals := runnyValues(rng, 1+rng.Intn(300), 11, 8)
		c := NewRLE(vals)
		base := rng.Intn(len(vals))
		width := len(vals) - base
		// Random sorted disjoint spans within [base, base+width).
		var spans []sel.Span
		var want int64
		row := 0
		for row < width {
			row += rng.Intn(5)
			if row >= width {
				break
			}
			end := row + 1 + rng.Intn(6)
			if end > width {
				end = width
			}
			spans = append(spans, sel.Span{Start: int32(row), End: int32(end)})
			for i := row; i < end; i++ {
				want += vals[base+i]
			}
			row = end + 1
		}
		if got := c.SumSpans(base, spans); got != want {
			t.Fatalf("SumSpans(base=%d, %v) = %d, want %d", base, spans, got, want)
		}
	}
	// Empty span list.
	c := NewRLE([]int64{1, 2, 3})
	if got := c.SumSpans(0, nil); got != 0 {
		t.Fatalf("empty spans: %d", got)
	}
}

func TestDeltaMonotonic(t *testing.T) {
	cases := []struct {
		vals      []int64
		asc, desc bool
	}{
		{nil, true, true},
		{[]int64{7}, true, true},
		{[]int64{3, 3, 3}, true, true},
		{[]int64{1, 2, 2, 9}, true, false},
		{[]int64{9, 4, 4, -1}, false, true},
		{[]int64{1, 5, 2}, false, false},
	}
	for _, tc := range cases {
		c := NewDelta(tc.vals)
		asc, desc := c.Monotonic()
		if asc != tc.asc || desc != tc.desc {
			t.Errorf("Monotonic(%v) = (%v,%v), want (%v,%v)", tc.vals, asc, desc, tc.asc, tc.desc)
		}
	}
}

// replayMono is Monotonic by replaying every value from the first
// checkpoint through the packed deltas, as a loader that reads no flag
// must.
func replayMono(c *DeltaColumn) (asc, desc bool) {
	asc, desc = true, true
	if c.n == 0 {
		return asc, desc
	}
	v := c.checkpoints[0]
	for i := range c.deltas.Len() {
		next := v + unzigzag(c.deltas.Get(i))
		asc, desc = asc && next >= v, desc && next <= v
		v = next
	}
	return asc, desc
}

// A loaded delta column's flags equal the encoder's at every delta width
// 1–64 for ascending (even rises, which the zig-zag low bits prove, and
// odd ones, which take the replay), descending, constant and mixed
// columns, one whose even rises wrap, and one that rises until its last
// step. The widest step of each is placed so the stream is exactly that
// wide where the shape allows. Columns whose rise could wrap int64 take
// the replay. The same holds when the bits past the last delta — the rest
// of its word and the pad word — are set, which the low-bit pass must
// mask off.
func TestDeltaMonotoneSurvivesSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	const n = 300 // crosses two checkpoints and ends mid-block
	for width := uint8(1); width <= 64; width++ {
		up := uint64(1)<<(width-1) - 1   // largest rise of this zig-zag width
		down := uint64(1) << (width - 1) // largest fall
		rise := func(most uint64) int64 { return int64(rng.Uint64() % (min(up, most) + 1)) }
		fall := func() int64 { return -int64(rng.Uint64() % (min(down, 2) + 1)) }
		shapes := []struct {
			name  string
			start int64
			step  func(i int) int64
			wide  bool // the stream is exactly width bits
		}{
			{"even rises", math.MinInt64, func(i int) int64 {
				if i == 7 {
					return int64(up &^ 1)
				}
				return rise(4) &^ 1
			}, width >= 3},
			{"odd rises", math.MinInt64, func(i int) int64 {
				if i == 7 {
					return int64(up)
				}
				return rise(3)
			}, true},
			{"descending", math.MaxInt64, func(i int) int64 {
				if i == 9 {
					return -int64(down)
				}
				return fall()
			}, true},
			{"constant", 42, func(int) int64 { return 0 }, width == 1},
			{"mixed", 0, func(i int) int64 {
				switch i {
				case 7:
					return int64(up)
				case 9:
					return -int64(down)
				}
				return rise(2) + fall()
			}, true},
			// Every rise even, the first wrapping past MaxInt64: the low
			// bits alone would call it ascending.
			{"even rises that wrap", math.MaxInt64 - 1, func(i int) int64 {
				if i == 1 {
					return int64(up &^ 1)
				}
				return rise(4) &^ 1
			}, width >= 3},
			{"last step falls", math.MinInt64, func(i int) int64 {
				if i == n-1 {
					return -1
				}
				if i == 7 {
					return int64(up &^ 1)
				}
				return rise(4) &^ 1
			}, width >= 3},
		}
		for _, sh := range shapes {
			vals := make([]int64, n)
			vals[0] = sh.start
			for i := 1; i < n; i++ {
				vals[i] = vals[i-1] + sh.step(i)
			}
			c := NewDelta(vals)
			if sh.wide && c.deltas.Bits() != width {
				t.Fatalf("width %d %s: deltas packed at %d bits", width, sh.name, c.deltas.Bits())
			}
			raw, err := AppendIntColumn(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := ReadIntColumn(NewCursor(raw))
			if err != nil {
				t.Fatal(err)
			}
			words := append([]uint64(nil), c.deltas.Words()...)
			nbits := uint64(c.deltas.Len()) * uint64(c.deltas.Bits())
			if r := nbits & 63; r != 0 {
				words[nbits>>6] |= ^uint64(0) << r
			}
			for w := (nbits + 63) >> 6; w < uint64(len(words)); w++ {
				words[w] = ^uint64(0)
			}
			dirty, err := bitpack.FromWords(words, c.deltas.Bits(), c.deltas.Len())
			if err != nil {
				t.Fatal(err)
			}
			padded := &DeltaColumn{n: c.n, deltas: dirty, checkpoints: c.checkpoints}
			padded.rebuildMono()
			asc, desc := c.Monotonic()
			if ra, rd := replayMono(c); asc != ra || desc != rd {
				t.Fatalf("width %d %s: encoder's flags (%v, %v), replay's (%v, %v)", width, sh.name, asc, desc, ra, rd)
			}
			for from, col := range map[string]*DeltaColumn{"loaded": rt.(*DeltaColumn), "padded": padded} {
				if a, d := col.Monotonic(); a != asc || d != desc {
					t.Errorf("width %d %s, %s: Monotonic (%v, %v), encoder's (%v, %v)", width, sh.name, from, a, d, asc, desc)
				}
			}
		}
	}
}

func TestDeltaRangeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	// Nondecreasing column spanning several checkpoint blocks.
	vals := make([]int64, 700)
	v := int64(-50)
	for i := range vals {
		v += int64(rng.Intn(4))
		vals[i] = v
	}
	c := NewDelta(vals)
	if asc, _ := c.Monotonic(); !asc {
		t.Fatal("expected nondecreasing")
	}
	for trial := 0; trial < 300; trial++ {
		start := rng.Intn(len(vals))
		n := 1 + rng.Intn(len(vals)-start)
		mn, mx, ok := c.RangeBounds(start, n)
		if !ok {
			t.Fatalf("RangeBounds(%d,%d) not ok", start, n)
		}
		if mn != vals[start] || mx != vals[start+n-1] {
			t.Fatalf("RangeBounds(%d,%d) = [%d,%d], want [%d,%d]", start, n, mn, mx, vals[start], vals[start+n-1])
		}
	}
	// Descending flips the endpoints.
	desc := make([]int64, len(vals))
	for i := range vals {
		desc[i] = -vals[i]
	}
	d := NewDelta(desc)
	mn, mx, ok := d.RangeBounds(10, 100)
	if !ok || mn != desc[109] || mx != desc[10] {
		t.Fatalf("desc RangeBounds = [%d,%d] ok=%v", mn, mx, ok)
	}
	// Non-monotonic columns refuse.
	nm := NewDelta([]int64{1, 9, 2})
	if _, _, ok := nm.RangeBounds(0, 3); ok {
		t.Fatal("non-monotonic RangeBounds should not be ok")
	}
	// Zero-length range refuses.
	if _, _, ok := c.RangeBounds(5, 0); ok {
		t.Fatal("empty RangeBounds should not be ok")
	}
	// Deserialization rebuilds the flags (covered further in serialize_test).
}
