package colstore

import (
	"bytes"
	"math/rand"
	"testing"

	"bipie/internal/encoding"
)

func buildRichSegment(t *testing.T, rng *rand.Rand, n int) *Segment {
	t.Helper()
	s := NewSegment(n)
	uniform := make([]int64, n)
	runs := make([]int64, n)
	sorted := make([]int64, n)
	strs := make([]string, n)
	acc := int64(1 << 40)
	v := int64(0)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Int63n(1<<20) - (1 << 19)
		if rng.Intn(30) == 0 {
			v = rng.Int63n(4)
		}
		runs[i] = v
		acc += rng.Int63n(3)
		sorted[i] = acc
		strs[i] = []string{"alpha", "beta", "gamma", "delta"}[rng.Intn(4)]
	}
	// Force each encoding to appear.
	if err := s.AddInt("uniform", encoding.NewBitPack(uniform)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInt("runs", encoding.NewRLE(runs)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInt("sorted", encoding.NewDelta(sorted)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddString("tag", encoding.NewDict(strs)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, n := range []int{1, 63, 64, 1000, 5000} {
		src := buildRichSegment(t, rng, n)
		src.MarkDeleted(0)
		if n > 100 {
			src.MarkDeleted(n / 2)
		}
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSegment(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Rows() != src.Rows() || got.DeletedRows() != src.DeletedRows() {
			t.Fatalf("n=%d: rows %d/%d deleted %d/%d", n, got.Rows(), src.Rows(), got.DeletedRows(), src.DeletedRows())
		}
		for _, name := range []string{"uniform", "runs", "sorted"} {
			a, _ := src.IntCol(name)
			b, err := got.IntCol(name)
			if err != nil {
				t.Fatal(err)
			}
			if a.Kind() != b.Kind() {
				t.Fatalf("%s: encoding changed %v → %v", name, a.Kind(), b.Kind())
			}
			if a.Min() != b.Min() || a.Max() != b.Max() {
				t.Fatalf("%s: metadata changed", name)
			}
			for i := 0; i < n; i += 1 + n/97 {
				if a.Get(i) != b.Get(i) {
					t.Fatalf("%s[%d]: %d != %d", name, i, b.Get(i), a.Get(i))
				}
			}
		}
		a, _ := src.StrCol("tag")
		b, err := got.StrCol("tag")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 1 + n/97 {
			if a.Get(i) != b.Get(i) {
				t.Fatalf("tag[%d]: %q != %q", i, b.Get(i), a.Get(i))
			}
		}
		if !got.IsDeleted(0) {
			t.Fatal("delete mark lost")
		}
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	src := buildRichSegment(t, rng, 500)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one byte in the middle.
	corrupted := append([]byte(nil), raw...)
	corrupted[len(corrupted)/2] ^= 0x40
	if _, err := ReadSegment(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("corrupted segment accepted")
	}
	// Truncation.
	if _, err := ReadSegment(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Fatal("truncated segment accepted")
	}
	// Empty input.
	if _, err := ReadSegment(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := ReadSegment(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A checksummed delete bitmap that marks a row past the last.
	if _, err := ReadSegment(bytes.NewReader(strayDeleteBitSegment())); err == nil {
		t.Fatal("delete bit past the segment's last row accepted")
	}
}

func TestSegmentNoDeletesOmitsBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	src := buildRichSegment(t, rng, 200)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegment(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.DeletedRows() != 0 {
		t.Fatal("phantom deletes")
	}
}
