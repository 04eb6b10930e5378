package colstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"bipie/internal/encoding"
)

// FuzzReadSegment asserts the deserializer never panics or over-allocates
// on arbitrary bytes, and that anything it accepts behaves like a segment
// (consistent row counts, readable columns).
func FuzzReadSegment(f *testing.F) {
	// Seed with real segments so mutations explore near-valid space.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 100, 1000} {
		s := NewSegment(n)
		ints := make([]int64, n)
		strs := make([]string, n)
		for i := range ints {
			ints[i] = rng.Int63n(1000)
			strs[i] = []string{"x", "y"}[i%2]
		}
		_ = s.AddInt("a", encoding.ChooseInt(ints))
		_ = s.AddString("g", encoding.NewDict(strs))
		if n > 10 {
			s.MarkDeleted(3)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("BIPS"))
	f.Add(oversizedHeaderSegment())

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := ReadSegment(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted segments must be internally consistent.
		if seg.Rows() < 0 || seg.DeletedRows() < 0 || seg.DeletedRows() > seg.Rows() {
			t.Fatalf("inconsistent rows: %d deleted of %d", seg.DeletedRows(), seg.Rows())
		}
		for _, name := range seg.Columns() {
			if col, err := seg.IntCol(name); err == nil {
				if col.Len() != seg.Rows() {
					t.Fatalf("column %q length %d, segment %d", name, col.Len(), seg.Rows())
				}
				if seg.Rows() > 0 {
					_ = col.Get(0)
					_ = col.Get(seg.Rows() - 1)
				}
				continue
			}
			col, err := seg.StrCol(name)
			if err != nil {
				t.Fatalf("column %q neither int nor string", name)
			}
			if col.Len() != seg.Rows() {
				t.Fatalf("column %q length %d, segment %d", name, col.Len(), seg.Rows())
			}
			if seg.Rows() > 0 {
				_ = col.Get(seg.Rows() - 1)
			}
		}
	})
}

// oversizedHeaderSegment is a well-formed, correctly checksummed segment of
// one bit-packed column that stops after the column's header, which claims
// 2^31 values of 64 bits in 2^31+1 words: 16 GiB the file does not hold. The
// reader must fail on the missing payload, not allocate on the claim.
func oversizedHeaderSegment() []byte {
	le := binary.LittleEndian
	b := append([]byte{}, segMagic[:]...)
	b = le.AppendUint32(b, segVersion)
	b = le.AppendUint64(b, 1<<31) // rows
	b = le.AppendUint32(b, 1)     // columns
	b = le.AppendUint32(b, 1)     // name length
	b = append(b, 'a', colTypeInt, uint8(encoding.KindBitPack))
	b = le.AppendUint64(b, 0) // ref
	b = le.AppendUint64(b, 0) // max
	b = append(b, 64)         // width
	b = le.AppendUint64(b, 1<<31)
	b = le.AppendUint64(b, 1<<31+1)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}
