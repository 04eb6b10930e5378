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
// trailing checksum. A column appends its bytes to the caller's buffer and
// is read back from a Cursor over bytes already in memory: nothing is
// staged, and nothing reflects.

import (
	"encoding/binary"
	"fmt"
	"io"

	"bipie/internal/bitpack"
)

var le = binary.LittleEndian

// maxSerializedElems caps the value counts read from untrusted input, so
// the word counts derived from them cannot overflow.
const maxSerializedElems = 1 << 31

func checkCount(n uint64, what string) error {
	if n > maxSerializedElems {
		return fmt.Errorf("encoding: unreasonable %s count %d", what, n)
	}
	return nil
}

// Cursor reads serialized fields from a byte slice. Its first failure
// sticks: later reads return zeros and Err reports it. Every count is held
// to the bytes left before anything is allocated on its say-so, so a
// header of a few bytes cannot make a reader allocate gigabytes.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a Cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Len returns how many bytes are left.
func (c *Cursor) Len() int { return len(c.b) }

// Bytes returns the next n bytes, which alias the input; nil once the
// input is short.
func (c *Cursor) Bytes(n uint64) []byte {
	if c.err != nil || n > uint64(len(c.b)) {
		c.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

var zeros [8]byte

// fixed is Bytes for a fixed-width field: zeros once the input is short.
func (c *Cursor) fixed(n int) []byte {
	if b := c.Bytes(uint64(n)); c.err == nil {
		return b
	}
	return zeros[:n]
}

// U8, U32 and U64 read one field.
func (c *Cursor) U8() uint8   { return c.fixed(1)[0] }
func (c *Cursor) U32() uint32 { return le.Uint32(c.fixed(4)) }
func (c *Cursor) U64() uint64 { return le.Uint64(c.fixed(8)) }
func (c *Cursor) i64() int64  { return int64(c.U64()) }

// Words reads n words into a slice of their own.
func (c *Cursor) Words(n uint64) []uint64 { return readWords[uint64](c, n) }

// word is an 8-byte element: every column payload is a run of these.
type word interface{ ~int | ~int64 | ~uint64 }

func readWords[T word](c *Cursor, n uint64) []T {
	// Held to the bytes left before 8*n can overflow.
	if n > uint64(c.Len())/8 {
		c.fail(io.ErrUnexpectedEOF)
	}
	raw := c.Bytes(8 * n)
	if c.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(le.Uint64(raw[8*i:]))
	}
	return out
}

func appendWords[T word](dst []byte, vals []T) []byte {
	for _, v := range vals {
		dst = le.AppendUint64(dst, uint64(v))
	}
	return dst
}

func appendPacked(dst []byte, v *bitpack.Vector) []byte {
	dst = le.AppendUint64(append(dst, v.Bits()), uint64(v.Len()))
	return appendWords(le.AppendUint64(dst, uint64(len(v.Words()))), v.Words())
}

func readPacked(c *Cursor) (*bitpack.Vector, error) {
	bits, n, nw := c.U8(), c.U64(), c.U64()
	if c.err != nil {
		return nil, c.err
	}
	if err := checkCount(n, "packed value"); err != nil {
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
	words := c.Words(nw)
	if c.err != nil {
		return nil, c.err
	}
	return bitpack.FromWords(words, bits, int(n))
}

// AppendIntColumn appends the serialized form of an encoded integer column
// to dst, preserving its encoding.
func AppendIntColumn(dst []byte, col IntColumn) ([]byte, error) {
	switch c := col.(type) {
	case *BitPackColumn:
		dst = appendWords(append(dst, uint8(KindBitPack)), []int64{c.ref, c.max})
		return appendPacked(dst, c.packed), nil
	case *RLEColumn:
		dst = appendWords(append(dst, uint8(KindRLE)), []int64{c.mn, c.mx, int64(len(c.values))})
		return appendWords(appendWords(dst, c.values), c.ends), nil
	case *DeltaColumn:
		dst = appendWords(append(dst, uint8(KindDelta)), []int64{int64(c.n), c.mn, c.mx, int64(len(c.checkpoints))})
		return appendPacked(appendWords(dst, c.checkpoints), c.deltas), nil
	default:
		return dst, fmt.Errorf("encoding: cannot serialize column kind %v", col.Kind())
	}
}

// ReadIntColumn decodes an integer column written by AppendIntColumn.
func ReadIntColumn(c *Cursor) (IntColumn, error) {
	kind := Kind(c.U8())
	if c.err != nil {
		return nil, c.err
	}
	switch kind {
	case KindBitPack:
		ref, max := c.i64(), c.i64()
		packed, err := readPacked(c)
		if err != nil {
			return nil, err
		}
		col := &BitPackColumn{ref: ref, max: max, packed: packed}
		col.rebuildZones() // zone maps are derived data, not serialized
		return col, nil
	case KindRLE:
		mn, mx, nruns := c.i64(), c.i64(), c.U64()
		if err := checkCount(nruns, "run"); err != nil {
			return nil, err
		}
		values := readWords[int64](c, nruns)
		ends := readWords[int](c, nruns)
		if c.err != nil {
			return nil, c.err
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
		n, mn, mx, ncp := c.U64(), c.i64(), c.i64(), c.U64()
		if c.err != nil {
			return nil, c.err
		}
		if err := checkCount(n, "delta value"); err != nil {
			return nil, err
		}
		if want := (n + deltaBlock - 1) / deltaBlock; ncp != want {
			return nil, fmt.Errorf("encoding: delta checkpoint count %d, want %d", ncp, want)
		}
		checkpoints := readWords[int64](c, ncp)
		deltas, err := readPacked(c)
		if err != nil {
			return nil, err
		}
		if want := max(int(n)-1, 0); deltas.Len() != want {
			return nil, fmt.Errorf("encoding: %d deltas for %d values, want %d", deltas.Len(), n, want)
		}
		col := &DeltaColumn{n: int(n), deltas: deltas, checkpoints: checkpoints, mn: mn, mx: mx}
		col.rebuildMono() // monotonicity flags are derived data, not serialized
		return col, nil
	default:
		return nil, fmt.Errorf("encoding: unknown column kind %d", kind)
	}
}

// AppendDictColumn appends the serialized form of a dictionary string
// column to dst: the sorted dictionary as length-prefixed strings, then the
// bit-packed id vector.
func AppendDictColumn(dst []byte, col *DictColumn) []byte {
	dst = le.AppendUint32(dst, uint32(len(col.dict)))
	for _, s := range col.dict {
		dst = append(le.AppendUint32(dst, uint32(len(s))), s...)
	}
	return appendPacked(dst, col.ids)
}

// ReadDictColumn decodes a column written by AppendDictColumn.
func ReadDictColumn(c *Cursor) (*DictColumn, error) {
	nd := uint64(c.U32())
	if err := checkCount(nd, "dictionary entry"); err != nil {
		return nil, err
	}
	// Every entry holds at least its 4-byte length.
	if nd > uint64(c.Len())/4 {
		c.fail(io.ErrUnexpectedEOF)
	}
	if c.err != nil {
		return nil, c.err
	}
	dict := make([]string, nd)
	for i := range dict {
		sl := uint64(c.U32())
		if err := checkCount(sl, "string byte"); err != nil {
			return nil, err
		}
		dict[i] = string(c.Bytes(sl))
	}
	ids, err := readPacked(c)
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
