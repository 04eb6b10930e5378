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
// (consistent row counts, readable columns). Each input's trailing CRC32 is
// rewritten to fit what the mutation left (resealed), so mutated bytes get
// past the checksum to the header and column decoders;
// TestSegmentCorruptionDetected holds the checksum itself.
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
	f.Add(strayDeleteBitSegment())

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := ReadSegment(bytes.NewReader(resealed(data)))
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

// resealed returns a copy of data whose last four bytes are the CRC32 of
// the bytes before them, as WriteTo seals a segment. Inputs too short to
// hold a checksum come back as they are.
func resealed(data []byte) []byte {
	b := bytes.Clone(data)
	if len(b) < 8 {
		return b
	}
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(body):], crc32.ChecksumIEEE(body))
	return b
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

// strayDeleteBitSegment is a correctly checksummed segment of 100 rows whose
// delete bitmap marks row 3 and also row 100, one past its last row. A
// reader that counts only the rows below 100 would keep the stray bit and
// write it out again.
func strayDeleteBitSegment() []byte {
	s := NewSegment(100)
	if err := s.AddInt("a", encoding.NewBitPack(make([]int64, 100))); err != nil {
		panic(err)
	}
	s.MarkDeleted(3)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		panic(err)
	}
	// The bitmap's second word, rows 64 to 127, ends where the checksum
	// starts.
	le := binary.LittleEndian
	body := buf.Bytes()[:buf.Len()-4]
	last := body[len(body)-8:]
	le.PutUint64(last, le.Uint64(last)|1<<(100-64))
	return le.AppendUint32(body, crc32.ChecksumIEEE(body))
}
