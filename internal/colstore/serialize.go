package colstore

// Binary serialization of immutable segments — the persistence format of
// the disk-backed columnstore (paper §2). A segment serializes as a
// magic-and-versioned header, the column payloads in their encoded form,
// the deleted-row bitmap, and a trailing CRC32 over everything before it,
// so torn or corrupted files are rejected on load rather than decoded into
// garbage.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"bipie/internal/encoding"
)

// segMagic identifies a serialized BIPie segment.
var segMagic = [4]byte{'B', 'I', 'P', 'S'}

// segVersion is the current format version.
const segVersion = 1

const (
	colTypeInt    = 0
	colTypeString = 1
)

var le = binary.LittleEndian

// AppendTo appends the serialized segment to dst and returns the extended
// buffer: header, columns, delete bitmap, then the CRC of what it appended.
// It grows dst once, by a bound taken from the columns' footprints.
func (s *Segment) AppendTo(dst []byte) ([]byte, error) {
	start := len(dst)
	// Past its SizeBytes a column's serialized form adds its name and at
	// most 64 bytes of headers.
	size := 32 + 8*len(s.deleted)
	for _, name := range s.order {
		if col, ok := s.intCols[name]; ok {
			size += col.SizeBytes()
		} else {
			size += s.strCols[name].SizeBytes()
		}
		size += len(name) + 64
	}
	if cap(dst)-len(dst) < size {
		// make, not slices.Grow: one allocation in every build mode (the
		// race detector's build stages slices.Grow's zeros in a second).
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst = append(dst, segMagic[:]...)
	dst = le.AppendUint32(le.AppendUint64(le.AppendUint32(dst, segVersion), uint64(s.n)), uint32(len(s.order)))
	for _, name := range s.order {
		dst = append(le.AppendUint32(dst, uint32(len(name))), name...)
		if col, ok := s.intCols[name]; ok {
			var err error
			if dst, err = encoding.AppendIntColumn(append(dst, colTypeInt), col); err != nil {
				return dst[:start], fmt.Errorf("colstore: column %q: %w", name, err)
			}
			continue
		}
		dst = encoding.AppendDictColumn(append(dst, colTypeString), s.strCols[name])
	}
	// Deleted bitmap: word count then words (zero words when no deletes).
	dst = le.AppendUint64(dst, uint64(len(s.deleted)))
	for _, w := range s.deleted {
		dst = le.AppendUint64(dst, w)
	}
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// WriteTo serializes the segment in one write. It implements io.WriterTo.
func (s *Segment) WriteTo(w io.Writer) (int64, error) {
	b, err := s.AppendTo(nil)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadSegment reads r to its end and decodes the segment it holds.
func ReadSegment(r io.Reader) (*Segment, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeSegment(b)
}

// DecodeSegment decodes a segment from b, which holds exactly one
// serialized segment, checksum included. It verifies the checksum and the
// structural invariants (column lengths, delete-bitmap size); the segment
// shares no memory with b.
func DecodeSegment(b []byte) (*Segment, error) {
	if len(b) < 4+4 {
		return nil, fmt.Errorf("colstore: truncated segment")
	}
	body := b[:len(b)-4]
	if got, want := crc32.ChecksumIEEE(body), le.Uint32(b[len(body):]); got != want {
		return nil, fmt.Errorf("colstore: checksum mismatch: %08x != %08x", got, want)
	}
	c := encoding.NewCursor(body)
	if magic := c.Bytes(4); !bytes.Equal(magic, segMagic[:]) {
		return nil, fmt.Errorf("colstore: bad magic %q", magic)
	}
	version, rows, ncols := c.U32(), c.U64(), c.U32()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if version != segVersion {
		return nil, fmt.Errorf("colstore: unsupported segment version %d", version)
	}
	if rows > 1<<40 {
		return nil, fmt.Errorf("colstore: unreasonable row count %d", rows)
	}
	seg := NewSegment(int(rows))
	for range ncols {
		nameLen := c.U32()
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("colstore: unreasonable column name length %d", nameLen)
		}
		name := string(c.Bytes(uint64(nameLen)))
		switch typ := c.U8(); typ {
		case colTypeInt:
			col, err := encoding.ReadIntColumn(c)
			if err != nil {
				return nil, fmt.Errorf("colstore: column %q: %w", name, err)
			}
			if err := seg.AddInt(name, col); err != nil {
				return nil, err
			}
		case colTypeString:
			col, err := encoding.ReadDictColumn(c)
			if err != nil {
				return nil, fmt.Errorf("colstore: column %q: %w", name, err)
			}
			if err := seg.AddString(name, col); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("colstore: unknown column type %d", typ)
		}
	}
	if nDel := c.U64(); nDel > 0 {
		if want := (rows + 63) / 64; nDel != want {
			return nil, fmt.Errorf("colstore: delete bitmap has %d words, want %d", nDel, want)
		}
		seg.deleted = c.Words(nDel)
		if tail := rows % 64; c.Err() == nil && tail != 0 && seg.deleted[nDel-1]>>tail != 0 {
			return nil, fmt.Errorf("colstore: delete bitmap marks rows past the segment's %d", rows)
		}
		for _, w := range seg.deleted {
			seg.nDel += bits.OnesCount64(w)
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("colstore: %d trailing bytes after segment", c.Len())
	}
	return seg, nil
}
