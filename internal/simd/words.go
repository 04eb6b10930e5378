package simd

import "encoding/binary"

// LoadBytes loads 8 consecutive bytes starting at b[off] as one little-endian
// word of 8 byte lanes. Callers guarantee off+8 <= len(b); kernels pad their
// buffers to whole words so the hot loop never needs a tail branch.
//
//bipie:kernel
func LoadBytes(b []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(b[off : off+8])
}

// LoadUint16x4 loads 4 consecutive uint16 values starting at v[off] as one
// word of 4 two-byte lanes.
//
//bipie:kernel
func LoadUint16x4(v []uint16, off int) uint64 {
	return uint64(v[off]) | uint64(v[off+1])<<16 | uint64(v[off+2])<<32 | uint64(v[off+3])<<48
}

// LoadUint32x2 loads 2 consecutive uint32 values starting at v[off] as one
// word of 2 four-byte lanes.
//
//bipie:kernel
func LoadUint32x2(v []uint32, off int) uint64 {
	return uint64(v[off]) | uint64(v[off+1])<<32
}

// PadToWord returns n rounded up to a multiple of 8, the allocation size for
// byte buffers processed 8 lanes at a time.
func PadToWord(n int) int { return (n + 7) &^ 7 }
