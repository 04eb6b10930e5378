package bitpack

import (
	"encoding/binary"
	"math/bits"
)

// Word-parallel unpack kernels: the SWAR analogues of the SIMD unpack
// kernels of Willhalm et al. that the paper's Vector Toolbox builds on.
// Two width families have one:
//
//   - widths that divide 64 (1, 2, 4, 8, 16, 32): values never straddle a
//     word, so one packed word yields 64/w outputs with a few constant
//     shift-and-mask "spread" steps per eight of them;
//   - the 3·2^k family (3, 6, 12, 24): incommensurate with 64 but
//     repeating every three words. One period is cut into four 48-bit
//     chunks with constant shifts (chunks48) and each chunk is widened to
//     the 4·2^k geometry — 24→32, 12→16, 6→8, 3→4 bits per field — by the
//     spread32/16/8/4 chain, after which it *is* a word of the dividing
//     family. This is the per-bit-width unrolled routine of Lemire &
//     Boytsov over its LCM(w, 64) period; the file format is untouched.
//
// Every other width, and the ragged head and tail around a kernel body,
// takes the windowed two-word loop (unpackWindowed).

// hasKernel reports whether width has a word-parallel unpack and compare
// body.
//
//bipie:inline
func hasKernel(width uint8) bool {
	const widths = 1<<1 | 1<<2 | 1<<3 | 1<<4 | 1<<6 | 1<<8 | 1<<12 | 1<<16 | 1<<24 | 1<<32
	return width <= 32 && widths>>width&1 != 0
}

// periodLanes is the number of width-bit lanes after which the packing
// returns to a word boundary: 64/gcd(width, 64). A lane index is
// word-aligned exactly when it is a multiple of it.
//
//bipie:inline
func periodLanes(width uint8) int {
	return 64 >> bits.TrailingZeros8(width|64)
}

// splitLanes cuts lanes [start, start+n) into a head, a body and a tail
// (of n-head-body lanes): the body starts at the first word-aligned lane
// and is a whole number of periods, so the head is shorter than one
// period. Unpack and compare share it; both run their kernel on the body
// and the windowed loop on the rest.
//
//bipie:inline
func splitLanes(width uint8, start, n int) (head, body int) {
	p := periodLanes(width)
	head = min(-start&(p-1), n)
	return head, (n - head) &^ (p - 1)
}

// split is splitLanes for this vector, with an empty body when the width
// has no kernel or its kernel works in lanes of another size than laneBytes
// (a 4-bit column unpacked into uint16 takes the windowed loop).
func (v *Vector) split(laneBytes, start, n int) (head, body int) {
	if !hasKernel(v.bits) || WordBytes(v.bits) != laneBytes {
		return n, 0
	}
	return splitLanes(v.bits, start, n)
}

// wordsAt returns the packed words from word-aligned lane i on.
//
//bipie:inline
func (v *Vector) wordsAt(i int) []uint64 {
	return v.words[uint64(i)*uint64(v.bits)>>6:]
}

// unpackWindowed decodes values [start, start+len(dst)) with the general
// two-word window: any width, any alignment. It is the head/tail path of
// the kernels below, the only path of the widths without one, and the
// oracle their tests compare against.
//
//bipie:kernel
func unpackWindowed[T uint8 | uint16 | uint32 | uint64](v *Vector, dst []T, start int) {
	width := uint64(v.bits)
	mask := v.Mask()
	bitPos := uint64(start) * width
	for i := range dst {
		w := bitPos >> 6
		off := bitPos & 63
		val := v.words[w] >> off
		if off+width > 64 {
			val |= v.words[w+1] << (64 - off)
		}
		dst[i] = T(val & mask)
		bitPos += width
	}
}

// chunks48 cuts one three-word period into its four 48-bit chunks. Bits
// above 48 of c0..c2 are the next chunk's; the spread steps mask them off.
//
//bipie:inline
func chunks48(w0, w1, w2 uint64) (c0, c1, c2, c3 uint64) {
	return w0, w0>>48 | w1<<16, w1>>32 | w2<<32, w2 >> 16
}

// spread32 widens the two 24-bit fields of a 48-bit chunk to 32-bit lanes.
//
//bipie:inline
func spread32(c uint64) uint64 {
	return c&0x0000000000FFFFFF | c<<8&0x00FFFFFF00000000
}

// spread16 widens the four 12-bit fields of a 48-bit chunk to 16-bit lanes.
//
//bipie:inline
func spread16(c uint64) uint64 {
	t := spread32(c)
	return t&0x00000FFF00000FFF | t<<4&0x0FFF00000FFF0000
}

// spread8 widens the eight 6-bit fields of a 48-bit chunk to byte lanes.
//
//bipie:inline
func spread8(c uint64) uint64 {
	t := spread16(c)
	return t&0x003F003F003F003F | t<<2&0x3F003F003F003F00
}

// spread4 widens the sixteen 3-bit fields of a 48-bit chunk to nibbles.
//
//bipie:inline
func spread4(c uint64) uint64 {
	t := spread8(c)
	return t&0x0707070707070707 | t<<1&0x7070707070707070
}

// spreadNibbles expands 8 packed 4-bit values into 8 bytes.
//
//bipie:inline
func spreadNibbles(x uint32) uint64 {
	t := uint64(x)
	t = (t | t<<16) & 0x0000FFFF0000FFFF
	t = (t | t<<8) & 0x00FF00FF00FF00FF
	t = (t | t<<4) & 0x0F0F0F0F0F0F0F0F
	return t
}

// spreadCrumbs expands 8 packed 2-bit values into 8 bytes.
//
//bipie:inline
func spreadCrumbs(x uint16) uint64 {
	t := uint64(x)
	t = (t | t<<24) & 0x000000FF000000FF
	t = (t | t<<12) & 0x000F000F000F000F
	t = (t | t<<6) & 0x0303030303030303
	return t
}

// spreadBits expands 8 packed 1-bit values into 8 bytes.
//
//bipie:inline
func spreadBits(x uint8) uint64 {
	t := uint64(x)
	t = (t | t<<28) & 0x0000000F0000000F
	t = (t | t<<14) & 0x0003000300030003
	t = (t | t<<7) & lo8
	return t
}

// putU64 stores x little-endian into dst's first 8 bytes (one 8-byte
// store); put16x4 and put32x2 are the same store in 16- and 32-bit lanes.
// Callers pass a constant-length reslice so the inlined body carries no
// bounds checks.
//
//bipie:inline
func putU64(dst []uint8, x uint64) { binary.LittleEndian.PutUint64(dst, x) }

//bipie:inline
func put16x4(dst []uint16, x uint64) {
	_ = dst[3]
	dst[0], dst[1], dst[2], dst[3] = uint16(x), uint16(x>>16), uint16(x>>32), uint16(x>>48)
}

//bipie:inline
func put32x2(dst []uint32, x uint64) {
	_ = dst[1]
	dst[0], dst[1] = uint32(x), uint32(x>>32)
}

// Load16x4 and Load32x2 invert put16x4 and put32x2: they load v's first
// four 16-bit or two 32-bit values as one word of lanes.
//
//bipie:kernel
func Load16x4(v []uint16) uint64 {
	return uint64(v[0]) | uint64(v[1])<<16 | uint64(v[2])<<32 | uint64(v[3])<<48
}

//bipie:kernel
func Load32x2(v []uint32) uint64 {
	return uint64(v[0]) | uint64(v[1])<<32
}

// unpackBody8 decodes a kernel body (see splitLanes) of a width-1/2/3/4/6/8
// vector into bytes, src being the packed words from the body's first
// lane. Each case walks a pair of moving slices — the packed words and the
// remaining output — so every bound the loop body touches is pinned by the
// loop condition and no per-iteration bounds check survives prove; bipiegc
// holds the loops to that.
//
//bipie:kernel
//bipie:nobce
func unpackBody8(d []uint8, src []uint64, width uint8) {
	switch width {
	case 8:
		for ; len(d) >= 8 && len(src) > 0; d, src = d[8:], src[1:] {
			putU64(d[:8], src[0])
		}
	case 4:
		for ; len(d) >= 16 && len(src) > 0; d, src = d[16:], src[1:] {
			x := src[0]
			putU64(d[:8], spreadNibbles(uint32(x)))
			putU64(d[8:16], spreadNibbles(uint32(x>>32)))
		}
	case 2:
		for ; len(d) >= 32 && len(src) > 0; d, src = d[32:], src[1:] {
			x := src[0]
			putU64(d[:8], spreadCrumbs(uint16(x)))
			putU64(d[8:16], spreadCrumbs(uint16(x>>16)))
			putU64(d[16:24], spreadCrumbs(uint16(x>>32)))
			putU64(d[24:32], spreadCrumbs(uint16(x>>48)))
		}
	case 1:
		for ; len(d) >= 64 && len(src) > 0; d, src = d[64:], src[1:] {
			x := src[0]
			putU64(d[:8], spreadBits(uint8(x)))
			putU64(d[8:16], spreadBits(uint8(x>>8)))
			putU64(d[16:24], spreadBits(uint8(x>>16)))
			putU64(d[24:32], spreadBits(uint8(x>>24)))
			putU64(d[32:40], spreadBits(uint8(x>>32)))
			putU64(d[40:48], spreadBits(uint8(x>>40)))
			putU64(d[48:56], spreadBits(uint8(x>>48)))
			putU64(d[56:64], spreadBits(uint8(x>>56)))
		}
	case 6:
		for ; len(d) >= 32 && len(src) >= 3; d, src = d[32:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			putU64(d[:8], spread8(c0))
			putU64(d[8:16], spread8(c1))
			putU64(d[16:24], spread8(c2))
			putU64(d[24:32], spread8(c3))
		}
	case 3:
		for ; len(d) >= 64 && len(src) >= 3; d, src = d[64:], src[3:] {
			var c [4]uint64
			c[0], c[1], c[2], c[3] = chunks48(src[0], src[1], src[2])
			for q, i := d[:64], 0; len(q) >= 16; q, i = q[16:], i+1 {
				x := spread4(c[i&3])
				putU64(q[:8], spreadNibbles(uint32(x)))
				putU64(q[8:16], spreadNibbles(uint32(x>>32)))
			}
		}
	}
}

// unpackBody16 is unpackBody8 for the 16-bit-lane widths 12 and 16.
//
//bipie:kernel
//bipie:nobce
func unpackBody16(d []uint16, src []uint64, width uint8) {
	switch width {
	case 16:
		for ; len(d) >= 4 && len(src) > 0; d, src = d[4:], src[1:] {
			put16x4(d[:4], src[0])
		}
	case 12:
		for ; len(d) >= 16 && len(src) >= 3; d, src = d[16:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			put16x4(d[:4], spread16(c0))
			put16x4(d[4:8], spread16(c1))
			put16x4(d[8:12], spread16(c2))
			put16x4(d[12:16], spread16(c3))
		}
	}
}

// unpackBody32 is unpackBody8 for the 32-bit-lane widths 24 and 32.
//
//bipie:kernel
//bipie:nobce
func unpackBody32(d []uint32, src []uint64, width uint8) {
	switch width {
	case 32:
		for ; len(d) >= 2 && len(src) > 0; d, src = d[2:], src[1:] {
			put32x2(d[:2], src[0])
		}
	case 24:
		for ; len(d) >= 8 && len(src) >= 3; d, src = d[8:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			put32x2(d[:2], spread32(c0))
			put32x2(d[2:4], spread32(c1))
			put32x2(d[4:6], spread32(c2))
			put32x2(d[6:8], spread32(c3))
		}
	}
}
