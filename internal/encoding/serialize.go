package encoding

// Binary serialization of encoded columns, the on-disk face of the
// disk-backed columnstore (paper §2: "an in-memory row-oriented store and
// a disk-backed column-oriented store"). Columns serialize in their
// encoded form — bit-packed payloads are written as raw words, never
// decoded — so a loaded segment is immediately scannable with the same
// fused kernels.
//
// All integers are little-endian. Layouts are length-prefixed and versioned
// by the segment container (colstore); corruption is detected there with a
// trailing checksum.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"bipie/internal/bitpack"
)

// writeUvarint-style fixed helpers: fixed-width fields keep the format
// trivially seekable.
func writeU8(w io.Writer, v uint8) error   { return binary.Write(w, binary.LittleEndian, v) }
func writeU32(w io.Writer, v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU64(w io.Writer, v uint64) error { return binary.Write(w, binary.LittleEndian, v) }
func writeI64(w io.Writer, v int64) error  { return binary.Write(w, binary.LittleEndian, v) }

func readU8(r io.Reader) (uint8, error) {
	var v uint8
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}
func readU32(r io.Reader) (uint32, error) {
	var v uint32
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}
func readU64(r io.Reader) (uint64, error) {
	var v uint64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}
func readI64(r io.Reader) (int64, error) {
	var v int64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

// maxSerializedElems caps per-column element counts read from untrusted
// input. It bounds what a header may claim, not what a reader allocates:
// readWords grows its result only as the bytes arrive.
const maxSerializedElems = 1 << 31

func checkCount(n uint64, what string) error {
	if n > maxSerializedElems {
		return fmt.Errorf("encoding: unreasonable %s count %d", what, n)
	}
	return nil
}

const (
	// wireChunk is how many 8-byte elements cross the staging buffer per
	// Read or Write call.
	wireChunk = 1 << 10
	// wireUpfront is the most elements (or string bytes) a reader allocates
	// on a header's word alone; past it the result doubles as data arrives,
	// so a truncated or hostile input costs at most this much.
	wireUpfront = 1 << 17
)

// wire moves slices of 8-byte little-endian elements between a stream and
// memory through one staging buffer, reused across the chunks and slices of
// a column — in place of binary.Read/Write, which reflect on every call and
// stage each slice whole.
type wire struct{ buf []byte }

// word is an element wire moves: every column payload is one of these.
type word interface{ ~int | ~int64 | ~uint64 }

func (c *wire) chunk(elems int) []byte {
	if c.buf == nil {
		c.buf = make([]byte, 8*wireChunk)
	}
	return c.buf[:8*elems]
}

func writeWords[T word](c *wire, w io.Writer, vals []T) error {
	for len(vals) > 0 {
		k := min(len(vals), wireChunk)
		buf := c.chunk(k)
		for i, v := range vals[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// readWords reads n elements. n comes from an untrusted header; the caller
// has bounded it (checkCount) and, where the format allows, tied it to the
// column's other fields first.
func readWords[T word](c *wire, r io.Reader, n uint64) ([]T, error) {
	out := make([]T, 0, min(n, wireUpfront))
	for uint64(len(out)) < n {
		k := int(min(n-uint64(len(out)), wireChunk))
		buf := c.chunk(k)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		at := len(out)
		out = slices.Grow(out, k)[:at+k]
		for i := range out[at:] {
			out[at+i] = T(binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return out, nil
}

func writePacked(c *wire, w io.Writer, v *bitpack.Vector) error {
	if err := writeU8(w, v.Bits()); err != nil {
		return err
	}
	if err := writeU64(w, uint64(v.Len())); err != nil {
		return err
	}
	words := v.Words()
	if err := writeU64(w, uint64(len(words))); err != nil {
		return err
	}
	return writeWords(c, w, words)
}

func readPacked(c *wire, r io.Reader) (*bitpack.Vector, error) {
	bits, err := readU8(r)
	if err != nil {
		return nil, err
	}
	n, err := readU64(r)
	if err != nil {
		return nil, err
	}
	if err := checkCount(n, "packed value"); err != nil {
		return nil, err
	}
	nw, err := readU64(r)
	if err != nil {
		return nil, err
	}
	// The word count is implied by (n, bits); hold the header to it before
	// reading a single word on its say-so.
	if bits < 1 || bits > bitpack.MaxBits {
		return nil, fmt.Errorf("encoding: packed width %d out of range [1,64]", bits)
	}
	if want := uint64(bitpack.WordsFor(int(n), bits)); nw != want {
		return nil, fmt.Errorf("encoding: %d packed words for %d values of %d bits, want %d", nw, n, bits, want)
	}
	words, err := readWords[uint64](c, r, nw)
	if err != nil {
		return nil, err
	}
	return bitpack.FromWords(words, bits, int(n))
}

// WriteIntColumn serializes an encoded integer column, preserving its
// encoding.
func WriteIntColumn(w io.Writer, col IntColumn) error {
	if err := writeU8(w, uint8(col.Kind())); err != nil {
		return err
	}
	var wr wire
	switch c := col.(type) {
	case *BitPackColumn:
		if err := writeI64(w, c.ref); err != nil {
			return err
		}
		if err := writeI64(w, c.max); err != nil {
			return err
		}
		return writePacked(&wr, w, c.packed)
	case *RLEColumn:
		if err := writeI64(w, c.mn); err != nil {
			return err
		}
		if err := writeI64(w, c.mx); err != nil {
			return err
		}
		if err := writeU64(w, uint64(len(c.values))); err != nil {
			return err
		}
		if err := writeWords(&wr, w, c.values); err != nil {
			return err
		}
		return writeWords(&wr, w, c.ends)
	case *DeltaColumn:
		if err := writeU64(w, uint64(c.n)); err != nil {
			return err
		}
		if err := writeI64(w, c.mn); err != nil {
			return err
		}
		if err := writeI64(w, c.mx); err != nil {
			return err
		}
		if err := writeU64(w, uint64(len(c.checkpoints))); err != nil {
			return err
		}
		if err := writeWords(&wr, w, c.checkpoints); err != nil {
			return err
		}
		return writePacked(&wr, w, c.deltas)
	default:
		return fmt.Errorf("encoding: cannot serialize column kind %v", col.Kind())
	}
}

// ReadIntColumn deserializes an integer column written by WriteIntColumn.
func ReadIntColumn(r io.Reader) (IntColumn, error) {
	kind, err := readU8(r)
	if err != nil {
		return nil, err
	}
	var wr wire
	switch Kind(kind) {
	case KindBitPack:
		ref, err := readI64(r)
		if err != nil {
			return nil, err
		}
		max, err := readI64(r)
		if err != nil {
			return nil, err
		}
		packed, err := readPacked(&wr, r)
		if err != nil {
			return nil, err
		}
		c := &BitPackColumn{ref: ref, max: max, packed: packed}
		c.rebuildZones() // zone maps are derived data, not serialized
		return c, nil
	case KindRLE:
		mn, err := readI64(r)
		if err != nil {
			return nil, err
		}
		mx, err := readI64(r)
		if err != nil {
			return nil, err
		}
		nruns, err := readU64(r)
		if err != nil {
			return nil, err
		}
		if err := checkCount(nruns, "run"); err != nil {
			return nil, err
		}
		values, err := readWords[int64](&wr, r, nruns)
		if err != nil {
			return nil, err
		}
		ends, err := readWords[int](&wr, r, nruns)
		if err != nil {
			return nil, err
		}
		prev := 0
		for i, e := range ends {
			if e <= prev {
				return nil, fmt.Errorf("encoding: RLE run ends not strictly increasing at run %d", i)
			}
			prev = e
		}
		return &RLEColumn{values: values, ends: ends, mn: mn, mx: mx}, nil
	case KindDelta:
		n, err := readU64(r)
		if err != nil {
			return nil, err
		}
		if err := checkCount(n, "delta value"); err != nil {
			return nil, err
		}
		mn, err := readI64(r)
		if err != nil {
			return nil, err
		}
		mx, err := readI64(r)
		if err != nil {
			return nil, err
		}
		ncp, err := readU64(r)
		if err != nil {
			return nil, err
		}
		if want := (n + deltaBlock - 1) / deltaBlock; ncp != want {
			return nil, fmt.Errorf("encoding: delta checkpoint count %d, want %d", ncp, want)
		}
		checkpoints, err := readWords[int64](&wr, r, ncp)
		if err != nil {
			return nil, err
		}
		deltas, err := readPacked(&wr, r)
		if err != nil {
			return nil, err
		}
		if want := max(int(n)-1, 0); deltas.Len() != want {
			return nil, fmt.Errorf("encoding: %d deltas for %d values, want %d", deltas.Len(), n, want)
		}
		c := &DeltaColumn{n: int(n), deltas: deltas, checkpoints: checkpoints, mn: mn, mx: mx}
		c.rebuildMono() // monotonicity flags are derived data, not serialized
		return c, nil
	default:
		return nil, fmt.Errorf("encoding: unknown column kind %d", kind)
	}
}

// WriteDictColumn serializes a dictionary string column: the sorted
// dictionary as length-prefixed strings plus the bit-packed id vector.
func WriteDictColumn(w io.Writer, col *DictColumn) error {
	if err := writeU32(w, uint32(len(col.dict))); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, s := range col.dict {
		if err := writeU32(bw, uint32(len(s))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var wr wire
	return writePacked(&wr, w, col.ids)
}

// ReadDictColumn deserializes a column written by WriteDictColumn.
func ReadDictColumn(r io.Reader) (*DictColumn, error) {
	nd, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if err := checkCount(uint64(nd), "dictionary entry"); err != nil {
		return nil, err
	}
	// Like readWords: entries and their bytes are allocated as they arrive,
	// never on the header's word alone.
	dict := make([]string, 0, min(nd, wireUpfront))
	for range nd {
		sl, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if err := checkCount(uint64(sl), "string byte"); err != nil {
			return nil, err
		}
		var sb strings.Builder
		sb.Grow(int(min(sl, wireUpfront)))
		if _, err := io.CopyN(&sb, r, int64(sl)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		dict = append(dict, sb.String())
	}
	var wr wire
	ids, err := readPacked(&wr, r)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(dict); i++ {
		if dict[i-1] >= dict[i] {
			return nil, fmt.Errorf("encoding: dictionary not sorted at entry %d", i)
		}
	}
	return &DictColumn{dict: dict, ids: ids}, nil
}
