package colstore

import (
	"math/rand"
	"testing"

	"bipie/internal/encoding"
	"bipie/internal/sel"
)

func buildSegment(t *testing.T, n int) *Segment {
	t.Helper()
	s := NewSegment(n)
	ints := make([]int64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int64(i % 97)
		strs[i] = []string{"a", "b", "c"}[i%3]
	}
	if err := s.AddInt("x", encoding.ChooseInt(ints)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddString("g", encoding.NewDict(strs)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentBasics(t *testing.T) {
	s := buildSegment(t, 10000)
	if s.Rows() != 10000 || s.DeletedRows() != 0 {
		t.Fatal("row counts")
	}
	if len(s.Columns()) != 2 || s.Columns()[0] != "x" || s.Columns()[1] != "g" {
		t.Fatalf("Columns=%v", s.Columns())
	}
	xc, err := s.IntCol("x")
	if err != nil {
		t.Fatal(err)
	}
	if xc.Get(5) != 5 {
		t.Fatal("int col access")
	}
	gc, err := s.StrCol("g")
	if err != nil {
		t.Fatal(err)
	}
	if gc.Get(4) != "b" {
		t.Fatal("str col access")
	}
	if _, err := s.IntCol("nope"); err == nil {
		t.Fatal("expected missing column error")
	}
	if _, err := s.StrCol("x"); err == nil {
		t.Fatal("expected type-mismatch miss")
	}
}

func TestSegmentErrors(t *testing.T) {
	s := NewSegment(5)
	if err := s.AddInt("x", encoding.NewBitPack(make([]int64, 4))); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := s.AddInt("x", encoding.NewBitPack(make([]int64, 5))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInt("x", encoding.NewBitPack(make([]int64, 5))); err == nil {
		t.Fatal("expected duplicate column error")
	}
	if err := s.AddString("x", encoding.NewDict(make([]string, 5))); err == nil {
		t.Fatal("expected duplicate across types")
	}
}

func TestDeletes(t *testing.T) {
	s := buildSegment(t, 1000)
	s.MarkDeleted(0)
	s.MarkDeleted(999)
	s.MarkDeleted(500)
	s.MarkDeleted(500) // idempotent
	if s.DeletedRows() != 3 {
		t.Fatalf("deleted=%d", s.DeletedRows())
	}
	if !s.IsDeleted(0) || !s.IsDeleted(999) || s.IsDeleted(1) {
		t.Fatal("IsDeleted")
	}
	sel := make([]byte, 100)
	for i := range sel {
		sel[i] = 0xFF
	}
	s.ApplyDeletes(sel, 450)
	for i := range sel {
		want := byte(0xFF)
		if 450+i == 500 {
			want = 0
		}
		if sel[i] != want {
			t.Fatalf("sel[%d]=%x", i, sel[i])
		}
	}
}

func TestApplyDeletesNoopWhenNone(t *testing.T) {
	s := buildSegment(t, 64)
	sel := []byte{0xFF, 0xFF}
	s.ApplyDeletes(sel, 0)
	if sel[0] != 0xFF || sel[1] != 0xFF {
		t.Fatal("no-op violated")
	}
}

// TestHasDeletesAndLiveSpans holds the per-batch delete views to IsDeleted
// over random delete sets and ranges: HasDeletes at word edges and inside
// one word, and LiveSpans as sorted, disjoint, maximal spans covering
// exactly the live rows.
func TestHasDeletesAndLiveSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 700
	for trial := 0; trial < 200; trial++ {
		s := buildSegment(t, n)
		if trial > 0 {
			for k := rng.Intn(1 + rng.Intn(n)); k > 0; k-- {
				s.MarkDeleted(rng.Intn(n))
			}
		}
		for r := 0; r < 20; r++ {
			start := rng.Intn(n + 1)
			cnt := rng.Intn(n - start + 1)
			if r%4 == 0 {
				start = rng.Intn(n/64) * 64 // word-aligned, as the scan's batches are
				cnt = min(n-start, 64*(1+rng.Intn(3)))
			}
			hit := false
			for i := start; i < start+cnt; i++ {
				hit = hit || s.IsDeleted(i)
			}
			if got := s.HasDeletes(start, cnt); got != hit {
				t.Fatalf("trial %d: HasDeletes(%d, %d) = %v, want %v", trial, start, cnt, got, hit)
			}
			dst := make([]sel.Span, cnt/2+1)
			k := s.LiveSpans(dst, start, cnt)
			live := make([]bool, cnt)
			for j, sp := range dst[:k] {
				if sp.Start >= sp.End || (j > 0 && sp.Start <= dst[j-1].End) {
					t.Fatalf("trial %d: LiveSpans(%d, %d) = %v: not sorted, disjoint and maximal", trial, start, cnt, dst[:k])
				}
				for i := sp.Start; i < sp.End; i++ {
					live[i] = true
				}
			}
			for i := range live {
				if live[i] == s.IsDeleted(start+i) {
					t.Fatalf("trial %d: LiveSpans(%d, %d) = %v: row %d wrong", trial, start, cnt, dst[:k], start+i)
				}
			}
		}
	}
}

func TestBatches(t *testing.T) {
	s := buildSegment(t, 10000)
	batches := s.Batches()
	if len(batches) != 3 {
		t.Fatalf("batches=%d", len(batches))
	}
	total := 0
	for i, b := range batches {
		if b.Start != i*BatchRows {
			t.Fatalf("batch %d start=%d", i, b.Start)
		}
		total += b.N
		if b.N > BatchRows {
			t.Fatalf("batch %d size=%d", i, b.N)
		}
	}
	if total != 10000 {
		t.Fatalf("total=%d", total)
	}
	if last := batches[2]; last.N != 10000-2*BatchRows {
		t.Fatalf("tail batch=%d", last.N)
	}
}

func TestBatchesExactMultiple(t *testing.T) {
	s := buildSegment(t, 2*BatchRows)
	if got := len(s.Batches()); got != 2 {
		t.Fatalf("batches=%d", got)
	}
}

func TestMarkDeletedPanicsOutOfRange(t *testing.T) {
	s := buildSegment(t, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.MarkDeleted(10)
}
