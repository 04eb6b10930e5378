package encoding

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

func intColumnEqual(t *testing.T, a, b IntColumn) {
	t.Helper()
	if a.Kind() != b.Kind() || a.Len() != b.Len() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Fatalf("column shape changed: %v/%d/%d/%d vs %v/%d/%d/%d",
			a.Kind(), a.Len(), a.Min(), a.Max(), b.Kind(), b.Len(), b.Min(), b.Max())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != b.Get(i) {
			t.Fatalf("value %d changed: %d vs %d", i, a.Get(i), b.Get(i))
		}
	}
}

func TestIntColumnSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	for name, data := range datasets(rng) {
		for _, col := range []IntColumn{NewBitPack(data), NewRLE(data), NewDelta(data)} {
			raw, err := AppendIntColumn(nil, col)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, col.Kind(), err)
			}
			got, err := ReadIntColumn(NewCursor(raw))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, col.Kind(), err)
			}
			intColumnEqual(t, col, got)
		}
	}
}

func TestDictColumnSerializationRoundTrip(t *testing.T) {
	for _, vals := range [][]string{
		{"a", "b", "a", "c", "c", "c"},
		{"only"},
		{"", "x", "", "y"}, // empty strings are legal dictionary entries
		{"quote'd", `back\slash`, "uni→code"},
	} {
		col := NewDict(vals)
		got, err := ReadDictColumn(NewCursor(AppendDictColumn(nil, col)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cardinality() != col.Cardinality() || got.Len() != col.Len() {
			t.Fatal("dict shape changed")
		}
		for i := range vals {
			if got.Get(i) != vals[i] {
				t.Fatalf("[%d]=%q want %q", i, got.Get(i), vals[i])
			}
		}
	}
}

func TestReadIntColumnRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{99},                         // unknown kind
		{uint8(KindBitPack)},         // truncated after kind
		{uint8(KindRLE), 0, 0, 0, 0}, // truncated RLE
	}
	for i, raw := range cases {
		if _, err := ReadIntColumn(NewCursor(raw)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// RLE with non-increasing ends.
	raw, err := AppendIntColumn(nil, NewRLE([]int64{1, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	// The ends array is the last 2*8 bytes; swap the two ends.
	n := len(raw)
	copy(raw[n-16:n-8], []byte{9, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadIntColumn(NewCursor(raw)); err == nil {
		t.Error("non-increasing RLE ends accepted")
	}
}

func TestReadDictColumnRejectsUnsorted(t *testing.T) {
	raw := AppendDictColumn(nil, NewDict([]string{"b", "a"}))
	// Swap the two single-byte dictionary entries "a" and "b": layout is
	// count u32, len u32, byte, len u32, byte, ...
	raw[8], raw[13] = raw[13], raw[8]
	if _, err := ReadDictColumn(NewCursor(raw)); err == nil {
		t.Error("unsorted dictionary accepted")
	}
	if _, err := ReadDictColumn(NewCursor(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadTruncatedEverywhere(t *testing.T) {
	// Every strict prefix of a valid stream must error, never panic.
	rng := rand.New(rand.NewSource(131))
	data := make([]int64, 300)
	for i := range data {
		data[i] = rng.Int63n(1000)
	}
	for _, col := range []IntColumn{NewBitPack(data), NewRLE(data), NewDelta(data)} {
		raw, err := AppendIntColumn(nil, col)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(raw); cut += 1 + len(raw)/50 {
			if _, err := ReadIntColumn(NewCursor(raw[:cut])); err == nil {
				t.Fatalf("%v: prefix of %d/%d bytes accepted", col.Kind(), cut, len(raw))
			}
		}
	}
}

// packedHeader is a bit-packed column up to its payload: kind, ref, max,
// width, value count, word count.
func packedHeader(bits uint8, n, nw uint64) []byte {
	le := binary.LittleEndian
	raw := append(le.AppendUint64(le.AppendUint64([]byte{uint8(KindBitPack)}, 0), 0), bits)
	return le.AppendUint64(le.AppendUint64(raw, n), nw)
}

// A header of a few bytes must not make the reader allocate gigabytes: a
// count that disagrees with the column's other fields is rejected outright,
// and one that agrees is believed only as far as the bytes go.
func TestHeaderCannotDriveAllocation(t *testing.T) {
	le := binary.LittleEndian
	readInt := func(raw []byte) error { _, err := ReadIntColumn(NewCursor(raw)); return err }
	readDict := func(raw []byte) error { _, err := ReadDictColumn(NewCursor(raw)); return err }
	for _, c := range []struct {
		name string
		raw  []byte
		read func([]byte) error
	}{
		{"2^31 words for 3 values", packedHeader(8, 3, 1<<31), readInt},
		{"16 GiB of words, consistent with 2^31 values", packedHeader(64, 1<<31, 1<<31+1), readInt},
		{"width 0", packedHeader(0, 1<<31, 1), readInt},
		{"2^31 runs", le.AppendUint64(append([]byte{uint8(KindRLE)}, make([]byte, 16)...), 1<<31), readInt},
		{"2^31 dictionary entries", le.AppendUint32(nil, 1<<31), readDict},
		{"dictionary entry of 2^31 bytes", le.AppendUint32(le.AppendUint32(nil, 1), 1<<31), readDict},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(c.raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: a %d-byte input allocated %d MiB", c.name, len(c.raw), grew>>20)
		}
	}
}

func TestWriteIntColumnRejectsUnknown(t *testing.T) {
	if _, err := AppendIntColumn(nil, fakeColumn{}); err == nil {
		t.Fatal("unknown column type accepted")
	}
}

type fakeColumn struct{}

func (fakeColumn) Kind() Kind          { return Kind(42) }
func (fakeColumn) Len() int            { return 0 }
func (fakeColumn) Min() int64          { return 0 }
func (fakeColumn) Max() int64          { return 0 }
func (fakeColumn) Get(int) int64       { return 0 }
func (fakeColumn) Decode([]int64, int) {}
func (fakeColumn) SizeBytes() int      { return 0 }
