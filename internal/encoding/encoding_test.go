package encoding

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testRoundTrip(t *testing.T, name string, c IntColumn, want []int64) {
	t.Helper()
	if c.Len() != len(want) {
		t.Fatalf("%s: Len=%d want %d", name, c.Len(), len(want))
	}
	got := DecodeAll(c)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: Decode[%d]=%d want %d", name, i, got[i], want[i])
		}
	}
	// Random access must agree everywhere, including run boundaries.
	for i := range want {
		if g := c.Get(i); g != want[i] {
			t.Fatalf("%s: Get(%d)=%d want %d", name, i, g, want[i])
		}
	}
	if len(want) > 0 {
		mn, mx := minMax(want)
		if c.Min() != mn || c.Max() != mx {
			t.Fatalf("%s: Min/Max=%d/%d want %d/%d", name, c.Min(), c.Max(), mn, mx)
		}
	}
}

func datasets(rng *rand.Rand) map[string][]int64 {
	uniform := make([]int64, 3000)
	for i := range uniform {
		uniform[i] = rng.Int63n(1000) - 500
	}
	runs := make([]int64, 3000)
	v := int64(0)
	for i := range runs {
		if rng.Intn(20) == 0 {
			v = rng.Int63n(5)
		}
		runs[i] = v
	}
	sorted := make([]int64, 3000)
	acc := int64(-100000)
	for i := range sorted {
		acc += rng.Int63n(7)
		sorted[i] = acc
	}
	constant := make([]int64, 500)
	for i := range constant {
		constant[i] = 42
	}
	return map[string][]int64{
		"uniform": uniform, "runs": runs, "sorted": sorted,
		"constant": constant, "single": {7}, "pair": {-3, 9},
	}
}

func TestIntEncodingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for name, data := range datasets(rng) {
		testRoundTrip(t, "bitpack/"+name, NewBitPack(data), data)
		testRoundTrip(t, "rle/"+name, NewRLE(data), data)
		testRoundTrip(t, "delta/"+name, NewDelta(data), data)
		testRoundTrip(t, "chosen/"+name, ChooseInt(data), data)
	}
}

func TestEmptyColumns(t *testing.T) {
	for _, c := range []IntColumn{NewBitPack(nil), NewRLE(nil), NewDelta(nil)} {
		if c.Len() != 0 {
			t.Fatalf("%s: empty Len=%d", c.Kind(), c.Len())
		}
		if got := DecodeAll(c); len(got) != 0 {
			t.Fatalf("%s: empty decode len=%d", c.Kind(), len(got))
		}
	}
}

func TestDecodePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]int64, 1000)
	for i := range data {
		data[i] = rng.Int63n(100)
	}
	for _, c := range []IntColumn{NewBitPack(data), NewRLE(data), NewDelta(data)} {
		dst := make([]int64, 250)
		c.Decode(dst, 333)
		for i := range dst {
			if dst[i] != data[333+i] {
				t.Fatalf("%s: partial [%d]=%d want %d", c.Kind(), i, dst[i], data[333+i])
			}
		}
	}
}

func TestDecodeRangeCheck(t *testing.T) {
	c := NewBitPack([]int64{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Decode(make([]int64, 3), 1)
}

func TestChooseIntPrefersCompact(t *testing.T) {
	constant := make([]int64, 5000)
	if got := ChooseInt(constant).Kind(); got != KindRLE {
		t.Errorf("constant column chose %v, want rle", got)
	}
	rng := rand.New(rand.NewSource(12))
	noisy := make([]int64, 5000)
	for i := range noisy {
		noisy[i] = rng.Int63n(1 << 40)
	}
	if got := ChooseInt(noisy).Kind(); got != KindBitPack {
		t.Errorf("noisy column chose %v, want bitpack", got)
	}
	sorted := make([]int64, 5000)
	acc := int64(1 << 50)
	for i := range sorted {
		acc += rng.Int63n(3)
		sorted[i] = acc
	}
	if got := ChooseInt(sorted).Kind(); got != KindDelta {
		t.Errorf("sorted wide column chose %v, want delta", got)
	}
}

// Only a bit-packed column keeps the zone arrays its statistics pass
// filled: an RLE or delta winner hands them to the next pass, so once warm,
// choosing either allocates no more than building it from the pass's
// statistics does — and a bit-packed column chosen next reuses the arrays,
// its zone maps still its own.
func TestChooseIntHandsBackZones(t *testing.T) {
	const n = 5*ZoneRows + 7
	runs, ramp, noise := make([]int64, n), make([]int64, n), make([]int64, n)
	rng := rand.New(rand.NewSource(45))
	for i := range runs {
		runs[i], ramp[i], noise[i] = int64(i/1000), int64(i)*3, rng.Int63n(1<<20)
	}
	for _, c := range []struct {
		kind   Kind
		values []int64
		build  func(st intStats) IntColumn
	}{
		{KindRLE, runs, func(st intStats) IntColumn { return newRLE(runs, st) }},
		{KindDelta, ramp, func(st intStats) IntColumn { return newDelta(ramp, st) }},
	} {
		st := scanInts(c.values)
		want := testing.AllocsPerRun(20, func() { c.build(st) })
		got := testing.AllocsPerRun(20, func() {
			if ChooseInt(c.values).Kind() != c.kind {
				t.Fatalf("ChooseInt did not pick %v", c.kind)
			}
		})
		if got != want {
			t.Errorf("%v: ChooseInt allocates %v, building the column %v", c.kind, got, want)
		}
	}
	ChooseInt(runs)
	bp := ChooseInt(noise).(*BitPackColumn)
	testRoundTrip(t, "bitpack after a hand-back", bp, noise)
	for z := range bp.zoneMin {
		lo, hi := bp.Packed().Bounds(z*ZoneRows, min(ZoneRows, n-z*ZoneRows))
		if lo != bp.zoneMin[z] || hi != bp.zoneMax[z] {
			t.Fatalf("zone %d: maps [%d,%d], offsets span [%d,%d]", z, bp.zoneMin[z], bp.zoneMax[z], lo, hi)
		}
	}
}

func TestBitPackWidthAndRef(t *testing.T) {
	c := NewBitPack([]int64{100, 107, 103})
	if c.Ref() != 100 {
		t.Errorf("Ref=%d", c.Ref())
	}
	if c.Width() != 3 { // max offset 7 → 3 bits
		t.Errorf("Width=%d", c.Width())
	}
	neg := NewBitPack([]int64{-5, -1, -3})
	if neg.Ref() != -5 || neg.Get(1) != -1 {
		t.Errorf("negative FOR: ref=%d get=%d", neg.Ref(), neg.Get(1))
	}
}

func TestRLERuns(t *testing.T) {
	c := NewRLE([]int64{1, 1, 1, 2, 2, 3})
	if c.Runs() != 3 {
		t.Fatalf("Runs=%d", c.Runs())
	}
	if c.Get(2) != 1 || c.Get(3) != 2 || c.Get(5) != 3 {
		t.Fatal("run boundary access")
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), 1<<62 - 1, -(1 << 62)} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag round trip failed for %d", v)
		}
	}
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Fatal("zigzag mapping order")
	}
}

func TestDictColumn(t *testing.T) {
	vals := []string{"R", "A", "N", "A", "R", "R", "N"}
	c := NewDict(vals)
	if c.Cardinality() != 3 {
		t.Fatalf("Cardinality=%d", c.Cardinality())
	}
	if len(c.Dict()) != 3 || c.Dict()[0] != "A" || c.Dict()[2] != "R" {
		t.Fatalf("Dict=%v", c.Dict())
	}
	for i, v := range vals {
		if c.Get(i) != v {
			t.Fatalf("Get(%d)=%q want %q", i, c.Get(i), v)
		}
		if c.Dict()[c.ID(i)] != v {
			t.Fatalf("ID(%d) wrong", i)
		}
	}
	id, ok := c.IDOf("N")
	if !ok || id != 1 {
		t.Fatalf("IDOf(N)=%d,%v", id, ok)
	}
	if _, ok := c.IDOf("Z"); ok {
		t.Fatal("IDOf(Z) should miss")
	}
	if c.IDs().Bits() != 2 {
		t.Fatalf("id width=%d", c.IDs().Bits())
	}
}

func TestDictSingleValue(t *testing.T) {
	c := NewDict([]string{"x", "x"})
	if c.Cardinality() != 1 || c.IDs().Bits() != 1 {
		t.Fatalf("cardinality=%d bits=%d", c.Cardinality(), c.IDs().Bits())
	}
}

// Property: every encoding round-trips arbitrary data.
func TestQuickEncodingsRoundTrip(t *testing.T) {
	f := func(data []int64) bool {
		for _, c := range []IntColumn{NewBitPack(data), NewRLE(data), NewDelta(data)} {
			got := DecodeAll(c)
			for i := range data {
				if got[i] != data[i] || c.Get(i) != data[i] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			n := rng.Intn(200)
			data := make([]int64, n)
			for i := range data {
				// Mix of magnitudes, but keep max-min within int64 so FOR
				// offsets do not overflow (segment metadata guarantees this
				// in the real system; see paper §2.1 overflow discussion).
				data[i] = rng.Int63n(1<<signedWidths[rng.Intn(len(signedWidths))]) - rng.Int63n(1<<10)
			}
			args[0] = reflect.ValueOf(data)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

var signedWidths = []uint{1, 4, 8, 16, 32, 48, 62}
