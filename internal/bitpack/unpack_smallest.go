package bitpack

// Unpacked holds a vector decoded into the smallest power-of-two word size
// that all values of its source bit width fit in (paper §2.2). Exactly one
// of U8, U16, U32, U64 is non-nil, selected by WordBytes.
//
// The downstream aggregation kernels (internal/agg) switch on the word size
// to pick lane widths, which is where using the smallest word matters: a
// 7-bit column unpacks to bytes and gets 8 SWAR lanes, while unpacking it to
// uint64 would get just 1.
type Unpacked struct {
	WordSize int // 1, 2, 4, or 8 bytes
	U8       []uint8
	U16      []uint16
	U32      []uint32
	U64      []uint64
}

// Len returns the number of unpacked values.
func (u *Unpacked) Len() int {
	switch u.WordSize {
	case 1:
		return len(u.U8)
	case 2:
		return len(u.U16)
	case 4:
		return len(u.U32)
	default:
		return len(u.U64)
	}
}

// Get returns the value at index i regardless of the word size. It is a
// convenience for tests and result assembly, not for inner loops.
func (u *Unpacked) Get(i int) uint64 {
	switch u.WordSize {
	case 1:
		return uint64(u.U8[i])
	case 2:
		return uint64(u.U16[i])
	case 4:
		return uint64(u.U32[i])
	default:
		return u.U64[i]
	}
}

// NewUnpacked allocates an Unpacked buffer of n values for a column of the
// given bit width.
func NewUnpacked(width uint8, n int) *Unpacked {
	u := &Unpacked{WordSize: WordBytes(width)}
	switch u.WordSize {
	case 1:
		u.U8 = make([]uint8, n)
	case 2:
		u.U16 = make([]uint16, n)
	case 4:
		u.U32 = make([]uint32, n)
	default:
		u.U64 = make([]uint64, n)
	}
	return u
}

// Resize sets the logical length to n, reallocating only when capacity is
// insufficient. It lets batch loops reuse one buffer across batches.
func (u *Unpacked) Resize(n int) {
	switch u.WordSize {
	case 1:
		if cap(u.U8) < n {
			u.U8 = make([]uint8, n)
		} else {
			u.U8 = u.U8[:n]
		}
	case 2:
		if cap(u.U16) < n {
			u.U16 = make([]uint16, n)
		} else {
			u.U16 = u.U16[:n]
		}
	case 4:
		if cap(u.U32) < n {
			u.U32 = make([]uint32, n)
		} else {
			u.U32 = u.U32[:n]
		}
	default:
		if cap(u.U64) < n {
			u.U64 = make([]uint64, n)
		} else {
			u.U64 = u.U64[:n]
		}
	}
}

// UnpackSmallest decodes values [start, start+n) into a buffer of the
// smallest power-of-two word size for the vector's bit width. buf may be nil
// or a buffer previously returned for the same width; it is resized and
// returned to allow reuse across batches.
func (v *Vector) UnpackSmallest(buf *Unpacked, start, n int) *Unpacked {
	ws := WordBytes(v.bits)
	if buf == nil || buf.WordSize != ws {
		buf = NewUnpacked(v.bits, n)
	} else {
		buf.Resize(n)
	}
	switch ws {
	case 1:
		v.UnpackUint8(buf.U8, start)
	case 2:
		v.UnpackUint16(buf.U16, start)
	case 4:
		v.UnpackUint32(buf.U32, start)
	default:
		v.UnpackUint64(buf.U64, start)
	}
	return buf
}
