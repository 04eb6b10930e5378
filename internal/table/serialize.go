package table

// Table persistence: schema plus sealed segments, each length-prefixed so
// segments can be skipped or loaded lazily by offset. The mutable region is
// never serialized — callers Flush first, mirroring the columnstore's rule
// that only the immutable region is the durable format (paper §2.1).

import (
	"encoding/binary"
	"fmt"
	"io"

	"bipie/internal/colstore"
)

var tableMagic = [4]byte{'B', 'I', 'P', 'T'}

const tableVersion = 1

var le = binary.LittleEndian

// WriteTo serializes the schema and all sealed segments. It returns an
// error if rows remain in the mutable region. Every segment is encoded into
// one buffer behind its length prefix and written once; the schema rides
// with the first. The buffer is reused from segment to segment, and
// recycled when WriteTo returns: w must not keep what it is given, as the
// io.Writer contract says.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	if t.mutLen > 0 {
		return 0, fmt.Errorf("table: %d unsealed rows; call Flush before serializing", t.mutLen)
	}
	var total int64
	write := func(b []byte) error {
		n, err := w.Write(b)
		total += int64(n)
		return err
	}
	buf := le.AppendUint32(le.AppendUint32(append(bytePool.get(anySize), tableMagic[:]...), tableVersion), uint32(len(t.schema)))
	defer func() { bytePool.put(buf, anySize) }()
	for _, c := range t.schema {
		buf = append(append(le.AppendUint32(buf, uint32(len(c.Name))), c.Name...), byte(c.Type))
	}
	buf = le.AppendUint32(buf, uint32(len(t.segments)))
	if len(t.segments) == 0 {
		err := write(buf)
		return total, err
	}
	for i, seg := range t.segments {
		if i > 0 {
			buf = buf[:0]
		}
		at := len(buf)
		var err error
		if buf, err = seg.AppendTo(le.AppendUint64(buf, 0)); err != nil {
			return total, fmt.Errorf("table: segment %d: %w", i, err)
		}
		le.PutUint64(buf[at:], uint64(len(buf)-at-8))
		if err := write(buf); err != nil {
			return total, err
		}
	}
	return total, nil
}

// loadChunk is the most Load allocates ahead of the bytes that have
// arrived: a length prefix is believed only as far as the input goes.
const loadChunk = 1 << 20

// loader reads a table's fields into one buffer, reused for each: the
// header's fields, then each segment whole.
type loader struct {
	r   io.Reader
	buf []byte
}

// next reads exactly n bytes, valid until the following call.
func (l *loader) next(n uint64) ([]byte, error) {
	b := l.buf[:0]
	for uint64(len(b)) < n {
		if len(b) == cap(b) {
			// make, not slices.Grow, as in Segment.AppendTo.
			grow := min(n-uint64(len(b)), max(uint64(len(b)), loadChunk))
			b = append(make([]byte, 0, uint64(len(b))+grow), b...)
		}
		k, err := io.ReadFull(l.r, b[len(b):min(uint64(cap(b)), n)])
		b = b[:len(b)+k]
		if err != nil {
			return nil, err
		}
	}
	l.buf = b
	return b, nil
}

// Load deserializes a table written by WriteTo. Each segment is read whole
// into one buffer, checked and decoded where it lies; the table keeps
// copies, and the buffer is recycled when Load returns.
func Load(r io.Reader) (*Table, error) {
	l := loader{r: r, buf: bytePool.get(anySize)}
	defer func() { bytePool.put(l.buf, anySize) }()
	hdr, err := l.next(12)
	if err != nil {
		return nil, err
	}
	if [4]byte(hdr) != tableMagic {
		return nil, fmt.Errorf("table: bad magic %q", hdr[:4])
	}
	if v := le.Uint32(hdr[4:]); v != tableVersion {
		return nil, fmt.Errorf("table: unsupported version %d", v)
	}
	ncols := le.Uint32(hdr[8:])
	if ncols > 1<<16 {
		return nil, fmt.Errorf("table: unreasonable column count %d", ncols)
	}
	var schema Schema
	for range ncols {
		b, err := l.next(4)
		if err != nil {
			return nil, err
		}
		nameLen := le.Uint32(b)
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("table: unreasonable name length %d", nameLen)
		}
		// The name, then its type byte.
		if b, err = l.next(uint64(nameLen) + 1); err != nil {
			return nil, err
		}
		typ := ColType(b[nameLen])
		if typ != Int64 && typ != String {
			return nil, fmt.Errorf("table: unknown column type %d", typ)
		}
		schema = append(schema, Column{Name: string(b[:nameLen]), Type: typ})
	}
	t, err := New(schema)
	if err != nil {
		return nil, err
	}
	b, err := l.next(4)
	if err != nil {
		return nil, err
	}
	nsegs := le.Uint32(b)
	if nsegs > 1<<20 {
		return nil, fmt.Errorf("table: unreasonable segment count %d", nsegs)
	}
	for i := range nsegs {
		if b, err = l.next(8); err != nil {
			return nil, err
		}
		segLen := le.Uint64(b)
		if segLen > 1<<34 {
			return nil, fmt.Errorf("table: unreasonable segment size %d", segLen)
		}
		if b, err = l.next(segLen); err != nil {
			return nil, fmt.Errorf("table: segment %d: %w", i, err)
		}
		seg, err := colstore.DecodeSegment(b)
		if err != nil {
			return nil, fmt.Errorf("table: segment %d: %w", i, err)
		}
		if err := t.adoptSegment(seg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// adoptSegment attaches a loaded segment after verifying it matches the
// schema exactly.
func (t *Table) adoptSegment(seg *colstore.Segment) error {
	if len(seg.Columns()) != len(t.schema) {
		return fmt.Errorf("table: segment has %d columns, schema has %d", len(seg.Columns()), len(t.schema))
	}
	for i, name := range seg.Columns() {
		c := t.schema[i]
		if name != c.Name {
			return fmt.Errorf("table: segment column %d is %q, schema says %q", i, name, c.Name)
		}
		var err error
		if c.Type == Int64 {
			_, err = seg.IntCol(name)
		} else {
			_, err = seg.StrCol(name)
		}
		if err != nil {
			return fmt.Errorf("table: segment column %q has wrong type", name)
		}
	}
	t.segments = append(t.segments, seg)
	return nil
}
