package encoding

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bipie/internal/bitpack"
)

// The oracles below are the encoders as they were before the write path
// read a column only twice: every constructor derives its own bounds,
// materializes its packed values as a []uint64 and packs that, the
// dictionary goes through two maps, and the chooser builds all three
// integer encodings to compare their sizes. They share no code with the
// constructors they check except bitpack.Pack, which internal/bitpack holds
// to its own reference loop.

func minMax(values []int64) (mn, mx int64) {
	if len(values) == 0 {
		return 0, 0
	}
	mn, mx = values[0], values[0]
	for _, v := range values[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

func oracleBitPack(values []int64) *BitPackColumn {
	mn, mx := minMax(values)
	offsets := make([]uint64, len(values))
	for i, v := range values {
		offsets[i] = uint64(v - mn)
	}
	c := &BitPackColumn{ref: mn, max: mx, packed: bitpack.MustPack(offsets, bitpack.BitsFor(uint64(mx-mn)))}
	nz := (len(offsets) + ZoneRows - 1) / ZoneRows
	c.zoneMin, c.zoneMax = make([]uint64, nz), make([]uint64, nz)
	for z := 0; z < nz; z++ {
		zone := offsets[z*ZoneRows : min((z+1)*ZoneRows, len(offsets))]
		zmn, zmx := zone[0], zone[0]
		for _, o := range zone[1:] {
			if o < zmn {
				zmn = o
			}
			if o > zmx {
				zmx = o
			}
		}
		c.zoneMin[z], c.zoneMax[z] = zmn, zmx
	}
	return c
}

func oracleRLE(values []int64) *RLEColumn {
	c := &RLEColumn{}
	c.mn, c.mx = minMax(values)
	for i := 0; i < len(values); {
		j := i + 1
		for j < len(values) && values[j] == values[i] {
			j++
		}
		c.values = append(c.values, values[i])
		c.ends = append(c.ends, j)
		i = j
	}
	return c
}

func oracleDelta(values []int64) *DeltaColumn {
	c := &DeltaColumn{n: len(values), asc: true, desc: true}
	c.mn, c.mx = minMax(values)
	if len(values) == 0 {
		c.deltas = bitpack.MustPack(nil, 1)
		return c
	}
	diffs := make([]uint64, len(values)-1)
	var maxDiff uint64
	for i := 1; i < len(values); i++ {
		d := zigzag(values[i] - values[i-1])
		diffs[i-1] = d
		if d > maxDiff {
			maxDiff = d
		}
		if values[i] < values[i-1] {
			c.asc = false
		}
		if values[i] > values[i-1] {
			c.desc = false
		}
	}
	c.deltas = bitpack.MustPack(diffs, bitpack.BitsFor(maxDiff))
	for k := 0; k*deltaBlock < len(values); k++ {
		c.checkpoints = append(c.checkpoints, values[k*deltaBlock])
	}
	return c
}

// oracleChooseInt is the trial-encode chooser: build all three, keep the
// smallest, ties to bit packing, then RLE, then delta.
func oracleChooseInt(values []int64) IntColumn {
	var best IntColumn = oracleBitPack(values)
	for _, c := range []IntColumn{oracleRLE(values), oracleDelta(values)} {
		if c.SizeBytes() < best.SizeBytes() {
			best = c
		}
	}
	return best
}

func oracleDict(values []string) *DictColumn {
	seen := make(map[string]struct{}, 16)
	for _, v := range values {
		seen[v] = struct{}{}
	}
	dict := make([]string, 0, len(seen))
	for v := range seen {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	idOf := make(map[string]uint64, len(dict))
	for i, v := range dict {
		idOf[v] = uint64(i)
	}
	ids := make([]uint64, len(values))
	for i, v := range values {
		ids[i] = idOf[v]
	}
	return &DictColumn{dict: dict, ids: bitpack.MustPack(ids, bitpack.BitsFor(uint64(max(len(dict)-1, 0))))}
}

// chooserLengths straddle the delta checkpoint block (128) and the zone
// (4096), where the size formulas round.
var chooserLengths = []int{0, 1, 127, 128, 129, 4095, 4096, 4097}

const chooserShapes = 7

// chooserColumn generates a column of one of the shapes the chooser has to
// tell apart.
func chooserColumn(shape uint8, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	switch shape % chooserShapes {
	case 0: // constant
		c := rng.Int63() - rng.Int63()
		for i := range vals {
			vals[i] = c
		}
	case 1: // runs
		runLen := 1 + rng.Intn(300)
		v := rng.Int63n(1000)
		for i := range vals {
			if i%runLen == 0 {
				v = rng.Int63n(1000)
			}
			vals[i] = v
		}
	case 2: // nondecreasing from a wide base
		acc := rng.Int63n(1 << 50)
		step := 1 + rng.Int63n(1<<uint(rng.Intn(20)))
		for i := range vals {
			acc += rng.Int63n(step)
			vals[i] = acc
		}
	case 3: // nonincreasing
		acc := rng.Int63n(1 << 50)
		for i := range vals {
			acc -= rng.Int63n(9)
			vals[i] = acc
		}
	case 4: // random at a random width
		bits := uint(1 + rng.Intn(62))
		for i := range vals {
			vals[i] = rng.Int63n(1<<bits) - rng.Int63n(1<<bits)
		}
	case 5: // int64 extremes: v[i]-v[i-1] and max-min wrap
		ends := [2]int64{math.MinInt64, math.MaxInt64}
		for i := range vals {
			vals[i] = ends[(i+rng.Intn(2))%2] + int64(rng.Intn(3))*int64(1-2*(i%2))
		}
	default: // one wrapping step, then a slow descent: the wrapped delta's sign lies
		for i := range vals {
			vals[i] = math.MaxInt64 - int64(i)
		}
		if n > 0 {
			vals[0] = math.MinInt64
		}
	}
	return vals
}

// checkChooser holds the statistics pass to the constructors (every
// analytic size is the built column's SizeBytes), every constructor to its
// oracle (all fields, packed words and derived data included), and
// ChooseInt to the trial-encode chooser.
func checkChooser(t *testing.T, vals []int64) {
	t.Helper()
	st := scanInts(vals)
	bp, rle, delta := NewBitPack(vals), NewRLE(vals), NewDelta(vals)
	for _, c := range []struct {
		col      IntColumn
		oracle   IntColumn
		analytic int
	}{
		{bp, oracleBitPack(vals), st.bitPackBytes()},
		{rle, oracleRLE(vals), st.rleBytes()},
		{delta, oracleDelta(vals), st.deltaBytes()},
	} {
		if got := c.col.SizeBytes(); got != c.analytic {
			t.Fatalf("%v: analytic size %d, built column is %d bytes (n=%d)", c.col.Kind(), c.analytic, got, len(vals))
		}
		if !reflect.DeepEqual(c.col, c.oracle) {
			t.Fatalf("%v: column differs from its oracle (n=%d)", c.col.Kind(), len(vals))
		}
	}
	got, want := ChooseInt(vals), oracleChooseInt(vals)
	if got.Kind() != want.Kind() {
		t.Fatalf("ChooseInt picked %v, trial encoding picks %v (n=%d)", got.Kind(), want.Kind(), len(vals))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ChooseInt's %v column differs from the oracle's (n=%d)", got.Kind(), len(vals))
	}
	a, err := AppendIntColumn(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendIntColumn(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("ChooseInt's %v column serializes differently from the oracle's (n=%d)", got.Kind(), len(vals))
	}
	back, err := ReadIntColumn(NewCursor(a))
	if err != nil {
		t.Fatal(err)
	}
	// An empty RLE column reloads with empty slices where the encoder
	// leaves nil ones; nothing derived can differ in an empty column.
	if len(vals) > 0 && !reflect.DeepEqual(back, want) {
		t.Fatalf("%v column reloads with different derived data (n=%d)", got.Kind(), len(vals))
	}
}

// FuzzChooseInt: the seeds are every shape at every boundary length.
func FuzzChooseInt(f *testing.F) {
	for shape := uint8(0); shape < chooserShapes; shape++ {
		for _, n := range chooserLengths {
			f.Add(shape, uint16(n), int64(shape)*31+int64(n))
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, seed int64) {
		checkChooser(t, chooserColumn(shape, int(n)%(2*ZoneRows+2), seed))
	})
}

const dictShapes = 8

// dictValues generates a string column of one of the shapes the dictionary
// builder has to get right; the last shape is raw split at '|', so the
// fuzzer picks the strings.
func dictValues(shape uint8, n int, seed int64, raw []byte) []string {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]string, n)
	switch shape % dictShapes {
	case 0: // one value
		for i := range vals {
			vals[i] = "x"
		}
	case 1: // a three-valued flag in runs
		for i := range vals {
			vals[i] = []string{"R", "A", "N"}[i/(1+int(seed&7))%3]
		}
	case 2: // a few more distinct values than the scanned table holds
		for i := range vals {
			vals[i] = fmt.Sprintf("v%02d", rng.Intn(dictScanMax+2))
		}
	case 3: // more than 256 distinct: ids leave the byte
		for i := range vals {
			vals[i] = fmt.Sprintf("key-%03d", rng.Intn(700))
		}
	case 4: // either side of the longest short key
		keys := []string{"abcdefg", "abcdefgh", "abcdef", "abcdefg\x00", "bcdefgh"}
		for i := range vals {
			vals[i] = keys[rng.Intn(len(keys))]
		}
	case 5: // zero bytes: a short key must not confuse "" with "\x00"
		keys := []string{"", "\x00", "\x00\x00", "a\x00", "a", "\x00a"}
		for i := range vals {
			vals[i] = keys[rng.Intn(len(keys))]
		}
	case 6: // all 256 one-byte strings among multi-byte ones: the one-byte
		// table fills while firstSeen moves to its map, and some bytes
		// arrive first after the switch
		for i := range vals {
			if rng.Intn(4) == 0 {
				vals[i] = fmt.Sprintf("m%d", rng.Intn(dictScanMax))
			} else {
				vals[i] = string([]byte{byte(rng.Intn(256))})
			}
		}
	default:
		vals = strings.Split(string(raw), "|")
	}
	return vals
}

// FuzzDictBuilder: a DictBuilder fed the same rows in any mix of chunks and
// single adds builds, at every point, the column NewDict builds from the
// rows so far; a column already built does not change as rows are appended,
// nor when the builder's recycled id storage is released and written over;
// and NewDict matches the two-map oracle.
func FuzzDictBuilder(f *testing.F) {
	for shape := uint8(0); shape < dictShapes; shape++ {
		for _, n := range []int{0, 1, dictScanMax, dictScanMax + 1, 300, 4097} {
			f.Add(shape, uint16(n), int64(shape)*31+int64(n), []byte("b|a||\x00|a|ab|abcdefgh|abcdefg"))
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, seed int64, raw []byte) {
		vals := dictValues(shape, int(n)%(2*ZoneRows+2), seed, raw)
		rng := rand.New(rand.NewSource(seed))
		type built struct {
			rows int
			col  *DictColumn
		}
		// The builder starts from recycled storage holding stale ids.
		recycled := make([]uint32, rng.Intn(len(vals)+2))
		for i := range recycled {
			recycled[i] = rng.Uint32()
		}
		b := NewDictBuilder(recycled)
		var snaps []built
		for done := 0; done < len(vals); {
			if rng.Intn(3) == 0 {
				b.Add(vals[done])
				done++
			} else {
				k := min(rng.Intn(len(vals)/4+2), len(vals)-done)
				b.Append(vals[done : done+k])
				done += k
			}
			if b.Len() != done {
				t.Fatalf("Len = %d after %d rows", b.Len(), done)
			}
			if rng.Intn(4) == 0 {
				snaps = append(snaps, built{done, b.Column()})
			}
		}
		snaps = append(snaps, built{len(vals), b.Column()})
		// Its storage goes back and is written over: no column built from
		// it may change.
		ids := b.Release()
		if b.Len() != 0 || len(ids) != 0 {
			t.Fatalf("Release left %d rows in the builder and returned %d ids", b.Len(), len(ids))
		}
		ids = ids[:cap(ids)]
		for i := range ids {
			ids[i] = ^uint32(i)
		}
		for _, s := range snaps {
			if want := NewDict(vals[:s.rows]); !reflect.DeepEqual(s.col, want) {
				t.Fatalf("column of the first %d of %d rows differs from NewDict's: dict %q vs %q", s.rows, len(vals), s.col.dict, want.dict)
			}
		}
		if got, want := NewDict(vals), oracleDict(vals); !reflect.DeepEqual(got, want) {
			t.Fatalf("NewDict differs from the two-map oracle: dict %q vs %q", got.dict, want.dict)
		}
		// The released builder, reused on the rows in reverse, meets the
		// one-byte values in another order: no id of its first life may
		// survive in its one-byte table.
		rev := slices.Clone(vals)
		slices.Reverse(rev)
		k := rng.Intn(len(rev) + 1)
		b.Append(rev[:k])
		for _, v := range rev[k:] {
			b.Add(v)
		}
		if got, want := b.Column(), NewDict(rev); !reflect.DeepEqual(got, want) {
			t.Fatalf("released builder reused on the %d rows reversed: dict %q vs %q", len(rev), got.dict, want.dict)
		}
	})
}

// TestDeltaMonotoneAcrossWrap: a step from MinInt64 to MaxInt64 is a delta
// of -1 after wrapping, so the column below looks nonincreasing to anything
// that reads delta signs — and its range bounds, taken from the endpoints,
// would miss MaxInt64. Both the encoder and the loader must see through it.
func TestDeltaMonotoneAcrossWrap(t *testing.T) {
	vals := []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 2}
	c := NewDelta(vals)
	raw, err := AppendIntColumn(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIntColumn(NewCursor(raw))
	if err != nil {
		t.Fatal(err)
	}
	for name, col := range map[string]*DeltaColumn{"encoded": c, "loaded": loaded.(*DeltaColumn)} {
		if asc, desc := col.Monotonic(); asc || desc {
			t.Errorf("%s: Monotonic = %v, %v for a column that rises then falls", name, asc, desc)
		}
		if mn, mx, ok := col.RangeBounds(0, len(vals)); ok && (mn > math.MinInt64 || mx < math.MaxInt64) {
			t.Errorf("%s: RangeBounds = [%d, %d], misses the extremes", name, mn, mx)
		}
	}
}

func TestNewDictMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	many := make([]string, 5000)
	for i := range many {
		many[i] = fmt.Sprintf("key-%03d", rng.Intn(700)) // > 256 distinct: ids leave the byte
	}
	runs := make([]string, 3000)
	for i := range runs {
		runs[i] = []string{"R", "A", "N"}[i/7%3]
	}
	edge := make([]string, 0, 3*(dictScanMax+1))
	for i := 0; i < 3*(dictScanMax+1); i++ { // crosses from the scanned table to the map
		edge = append(edge, fmt.Sprintf("v%02d", (i*7)%(dictScanMax+1)))
	}
	cases := map[string][]string{
		"empty":              nil,
		"one value":          {"x"},
		"one value repeated": {"x", "x", "x"},
		"shared prefix":      {"ab", "a", "abc", "", "ab", "abd", "a", "abc\x00", "abc"},
		"reverse sorted":     {"d", "c", "b", "a", "d"},
		"runs":               runs,
		"many":               many,
		"scan edge":          edge,
	}
	for name, vals := range cases {
		got, want := NewDict(vals), oracleDict(vals)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NewDict differs from the two-map oracle: dict %q vs %q", name, got.dict, want.dict)
			continue
		}
		if !bytes.Equal(AppendDictColumn(nil, got), AppendDictColumn(nil, want)) {
			t.Errorf("%s: NewDict serializes differently from the oracle", name)
		}
	}
}
