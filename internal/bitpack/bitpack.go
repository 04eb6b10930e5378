// Package bitpack implements fixed-width integer bit packing, the base
// encoding for columnstore columns in BIPie (paper §2.1–2.2).
//
// All values in a packed vector are stored with the same number of bits,
// concatenated without gaps. Unpacking always emits values into an array
// using the smallest power-of-two word size (1, 2, 4, or 8 bytes) that all
// values of the declared bit width fit in; the paper calls this out as
// important for performance because it maximizes SIMD lane counts downstream.
//
// It is also the one home of lane words: the paper's Vector Toolbox (§3,
// lanes.go) sits beside the period kernels' spread and compare steps.
//
// Validation happens once at the API boundary (Pack returns an error,
// MustPack and CheckUnpack panic); the pack and unpack inner loops are
// branch-free with respect to the data, which bipievet's nopanic and
// hotalloc analyzers enforce.
//
//bipie:kernelpkg
package bitpack

import (
	"fmt"
	"math/bits"
)

// Vector is an immutable bit-packed vector of n unsigned integers, each
// occupying exactly Bits bits, concatenated without gaps into 64-bit words.
type Vector struct {
	bits  uint8
	n     int
	words []uint64
}

// MaxBits is the largest supported bit width per value.
const MaxBits = 64

// BitsFor returns the number of bits required to represent max, minimum 1.
// It is the width chosen by the encoder for a column whose largest value is
// max (paper §2.1: "the smallest number of bits needed to represent the
// maximum index").
func BitsFor(max uint64) uint8 {
	if max == 0 {
		return 1
	}
	return uint8(bits.Len64(max))
}

// WordBytes returns the smallest power-of-two word size in bytes (1, 2, 4,
// or 8) that can hold any value of width b bits. Unpacking emits words of
// this size (paper §2.2).
func WordBytes(b uint8) int {
	switch {
	case b <= 8:
		return 1
	case b <= 16:
		return 2
	case b <= 32:
		return 4
	default:
		return 8
	}
}

// widthMask returns the all-ones mask of the low width bits, width in
// [1, 64].
func widthMask(width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<width - 1
}

// FromWords reconstructs a Vector from its raw representation; words must
// include the trailing pad word produced by Pack. It is used when decoding a
// serialized segment.
func FromWords(words []uint64, width uint8, n int) (*Vector, error) {
	if width < 1 || width > MaxBits {
		return nil, fmt.Errorf("bitpack: width %d out of range [1,64]", width)
	}
	need := WordsFor(n, width)
	if len(words) < need {
		return nil, fmt.Errorf("bitpack: need %d words for %d values of %d bits, have %d", need, n, width, len(words))
	}
	return &Vector{bits: width, n: n, words: words}, nil
}

// Len returns the number of packed values.
func (v *Vector) Len() int { return v.n }

// Bits returns the bit width per value.
func (v *Vector) Bits() uint8 { return v.bits }

// Words exposes the underlying packed words (including the pad word) for
// serialization and for the fused gather-selection kernel in internal/sel.
func (v *Vector) Words() []uint64 { return v.words }

// SizeBytes returns the in-memory footprint of the packed payload.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// Get extracts the value at index i. This is the scalar extraction path the
// gather kernel vectorizes; it reads a 64-bit window spanning at most two
// words. i must be in [0, Len()).
//
//bipie:kernel
func (v *Vector) Get(i int) uint64 {
	bitPos := uint64(i) * uint64(v.bits)
	w := bitPos >> 6
	off := bitPos & 63
	val := v.words[w] >> off
	if off+uint64(v.bits) > 64 {
		val |= v.words[w+1] << (64 - off)
	}
	if v.bits < 64 {
		val &= 1<<v.bits - 1
	}
	return val
}

// Mask returns the width mask (all ones in the low Bits bits).
func (v *Vector) Mask() uint64 { return widthMask(v.bits) }

// CheckUnpack validates an unpack request: the vector's width must not
// exceed maxBits (the output element width) and [start, start+n) must be in
// range. It is the exported validation boundary every unpack kernel calls
// once before its branch-free loop; bipievet's nopanic analyzer permits
// panics only behind boundaries like this one.
func (v *Vector) CheckUnpack(maxBits uint8, start, n int) {
	if v.bits > maxBits {
		panic(fmt.Sprintf("bitpack: unpack of %d-bit values into %d-bit words", v.bits, maxBits))
	}
	if start < 0 || n < 0 || start+n > v.n {
		panic(fmt.Sprintf("bitpack: range [%d,%d) out of bounds, len %d", start, start+n, v.n))
	}
}

// UnpackUint64 decodes values [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) UnpackUint64(dst []uint64, start int) {
	v.CheckUnpack(64, start, len(dst))
	unpackWindowed(v, dst, start)
}

// UnpackUint32 decodes values [start, start+len(dst)) into dst. The bit
// width must be at most 32.
//
//bipie:kernel
func (v *Vector) UnpackUint32(dst []uint32, start int) {
	v.CheckUnpack(32, start, len(dst))
	head, body := v.split(4, start, len(dst))
	unpackWindowed(v, dst[:head], start)
	unpackBody32(dst[head:head+body], v.wordsAt(start+head), v.bits)
	unpackWindowed(v, dst[head+body:], start+head+body)
}

// UnpackUint16 decodes values [start, start+len(dst)) into dst. The bit
// width must be at most 16.
//
//bipie:kernel
func (v *Vector) UnpackUint16(dst []uint16, start int) {
	v.CheckUnpack(16, start, len(dst))
	head, body := v.split(2, start, len(dst))
	unpackWindowed(v, dst[:head], start)
	unpackBody16(dst[head:head+body], v.wordsAt(start+head), v.bits)
	unpackWindowed(v, dst[head+body:], start+head+body)
}

// UnpackUint8 decodes values [start, start+len(dst)) into dst. The bit width
// must be at most 8.
//
//bipie:kernel
func (v *Vector) UnpackUint8(dst []uint8, start int) {
	v.CheckUnpack(8, start, len(dst))
	head, body := v.split(1, start, len(dst))
	unpackWindowed(v, dst[:head], start)
	unpackBody8(dst[head:head+body], v.wordsAt(start+head), v.bits)
	unpackWindowed(v, dst[head+body:], start+head+body)
}
