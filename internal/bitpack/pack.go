package bitpack

import "fmt"

// WordsFor returns the number of 64-bit words a vector of n values of
// width bits occupies, the trailing pad word included. Pack allocates
// exactly this many and FromWords requires at least as many.
func WordsFor(n int, width uint8) int {
	return int((uint64(n)*uint64(width)+63)/64 + 1) // +1 pad word simplifies 2-word reads
}

// Pack packs values using width bits per value. It validates once — width
// must be in [1, 64] and every value must fit in width bits (an OR-fold
// that rides the packing loop and is checked before the vector is
// returned) — around a check-free loop. Callers that computed width from
// the data's maximum (BitsFor) can use MustPack instead.
func Pack(values []uint64, width uint8) (*Vector, error) {
	p, err := NewPacker(len(values), width)
	if err != nil {
		return nil, err
	}
	p.Append(values)
	return p.Vector()
}

// MustPack is Pack for callers whose width provably fits the data (it was
// computed from the data's maximum); a failure is a programming error, so
// it panics instead of returning an error.
func MustPack(values []uint64, width uint8) *Vector {
	v, err := Pack(values, width)
	if err != nil {
		panic(err)
	}
	return v
}

// Packer packs a vector of n values block by block, for encoders that
// produce their values as they go (frame-of-reference offsets, zig-zag
// deltas, remapped dictionary ids) and would otherwise materialize a
// []uint64 column only to hand it to Pack. Blocks may have any length; one
// that is a multiple of 64 values keeps the next block word-aligned, which
// is where packBody's period kernels run.
type Packer struct {
	v   Vector
	at  int    // values appended so far
	all uint64 // OR-fold of every value appended, for the fits-in-width check
}

// NewPacker starts a vector of n values of width bits each; width must be
// in [1, 64].
func NewPacker(n int, width uint8) (Packer, error) {
	if width < 1 || width > MaxBits {
		return Packer{}, fmt.Errorf("bitpack: width %d out of range [1,64]", width)
	}
	return Packer{v: Vector{bits: width, n: n, words: make([]uint64, WordsFor(n, width))}}, nil
}

// Append packs block behind the values appended so far. A block that
// overruns the vector's declared length is counted but not packed; Vector
// reports the miscount.
func (p *Packer) Append(block []uint64) {
	if len(block) <= p.v.n-p.at {
		bit := uint64(p.at) * uint64(p.v.bits)
		p.all |= packBody(p.v.words[bit>>6:], block, p.v.bits, uint(bit&63))
	}
	p.at += len(block)
}

// Vector returns the packed vector. It fails when the values appended are
// not as many as declared or when one of them does not fit in the width —
// the once-per-vector validation that keeps packBody check-free.
func (p *Packer) Vector() (*Vector, error) {
	if p.at != p.v.n {
		return nil, fmt.Errorf("bitpack: packed %d of %d values", p.at, p.v.n)
	}
	if high := p.all &^ widthMask(p.v.bits); high != 0 {
		return nil, fmt.Errorf("bitpack: values do not fit in %d bits (high bits %#x)", p.v.bits, high)
	}
	return &p.v, nil
}

// fold2, fold4 and fold8 concatenate 2, 4 and 8 values of w bits each into
// one word, lowest first. Called with a constant w they inline to constant
// shifts — the spread chain of fastunpack.go run backwards. or8 is the
// OR-fold of the same eight values.
//
//bipie:inline
func fold2(s []uint64, w uint) uint64 {
	_ = s[1]
	return s[0] | s[1]<<w
}

//bipie:inline
func fold4(s []uint64, w uint) uint64 {
	_ = s[3]
	return s[0] | s[1]<<w | s[2]<<(2*w) | s[3]<<(3*w)
}

//bipie:inline
func fold8(s []uint64, w uint) uint64 {
	_ = s[7]
	return s[0] | s[1]<<w | s[2]<<(2*w) | s[3]<<(3*w) | s[4]<<(4*w) | s[5]<<(5*w) | s[6]<<(6*w) | s[7]<<(7*w)
}

//bipie:inline
func or8(s []uint64) uint64 {
	_ = s[7]
	return s[0] | s[1] | s[2] | s[3] | s[4] | s[5] | s[6] | s[7]
}

// orOctets is the OR-fold of a whole number of octets.
func orOctets(s []uint64) (all uint64) {
	for ; len(s) >= 8; s = s[8:] {
		all |= or8(s[:8])
	}
	return all
}

// unchunks48 joins the four 48-bit chunks of a three-word period; it is
// chunks48 backwards.
//
//bipie:inline
func unchunks48(c0, c1, c2, c3 uint64) (w0, w1, w2 uint64) {
	return c0 | c1<<48, c1>>16 | c2<<32, c2>>32 | c3<<16
}

// packBody is the one pack loop: it ORs src, width bits per value, into dst
// from bit fill of dst[0] on, and returns the OR-fold of src. dst[0] may
// hold earlier values below bit fill (the previous block's partial word)
// and must be zero above it; dst must reach one word past the last bit
// written, which the pad word guarantees.
//
// Every output word is built in a register and stored once. From a word
// boundary, the widths with an unpack kernel (hasKernel) pack whole periods
// with constant shifts: the dividing widths whole words at a time, the 3·2^k
// widths as four 48-bit chunks per three words. Every other width, and the
// ragged rest, takes the general loop: the values that end inside the
// word, then at most one that straddles into the next.
//
//bipie:kernel
//bipie:nobce
func packBody(dst, src []uint64, width uint8, fill uint) (all uint64) {
	if fill == 0 {
		switch width {
		case 32:
			for ; len(src) >= 8 && len(dst) >= 4; dst, src = dst[4:], src[8:] {
				s := src[:8]
				dst[0], dst[1], dst[2], dst[3] = fold2(s[:2], 32), fold2(s[2:4], 32), fold2(s[4:6], 32), fold2(s[6:8], 32)
				all |= or8(s)
			}
		case 16:
			for ; len(src) >= 8 && len(dst) >= 2; dst, src = dst[2:], src[8:] {
				s := src[:8]
				dst[0], dst[1] = fold4(s[:4], 16), fold4(s[4:8], 16)
				all |= or8(s)
			}
		case 8:
			for ; len(src) >= 8 && len(dst) > 0; dst, src = dst[1:], src[8:] {
				s := src[:8]
				dst[0] = fold8(s, 8)
				all |= or8(s)
			}
		case 4:
			for ; len(src) >= 16 && len(dst) > 0; dst, src = dst[1:], src[16:] {
				s := src[:16]
				dst[0] = fold8(s[:8], 4) | fold8(s[8:16], 4)<<32
				all |= orOctets(s)
			}
		case 2:
			for ; len(src) >= 32 && len(dst) > 0; dst, src = dst[1:], src[32:] {
				s := src[:32]
				dst[0] = fold8(s[:8], 2) | fold8(s[8:16], 2)<<16 | fold8(s[16:24], 2)<<32 | fold8(s[24:32], 2)<<48
				all |= orOctets(s)
			}
		case 1:
			for ; len(src) >= 64 && len(dst) > 0; dst, src = dst[1:], src[64:] {
				s := src[:64]
				dst[0] = fold8(s[:8], 1) | fold8(s[8:16], 1)<<8 | fold8(s[16:24], 1)<<16 | fold8(s[24:32], 1)<<24 |
					fold8(s[32:40], 1)<<32 | fold8(s[40:48], 1)<<40 | fold8(s[48:56], 1)<<48 | fold8(s[56:64], 1)<<56
				all |= orOctets(s)
			}
		case 24:
			for ; len(src) >= 8 && len(dst) >= 3; dst, src = dst[3:], src[8:] {
				s := src[:8]
				dst[0], dst[1], dst[2] = unchunks48(fold2(s[:2], 24), fold2(s[2:4], 24), fold2(s[4:6], 24), fold2(s[6:8], 24))
				all |= or8(s)
			}
		case 12:
			for ; len(src) >= 16 && len(dst) >= 3; dst, src = dst[3:], src[16:] {
				s := src[:16]
				dst[0], dst[1], dst[2] = unchunks48(fold4(s[:4], 12), fold4(s[4:8], 12), fold4(s[8:12], 12), fold4(s[12:16], 12))
				all |= orOctets(s)
			}
		case 6:
			for ; len(src) >= 32 && len(dst) >= 3; dst, src = dst[3:], src[32:] {
				s := src[:32]
				dst[0], dst[1], dst[2] = unchunks48(fold8(s[:8], 6), fold8(s[8:16], 6), fold8(s[16:24], 6), fold8(s[24:32], 6))
				all |= orOctets(s)
			}
		case 3:
			for ; len(src) >= 64 && len(dst) >= 3; dst, src = dst[3:], src[64:] {
				s := src[:64]
				dst[0], dst[1], dst[2] = unchunks48(
					fold8(s[:8], 3)|fold8(s[8:16], 3)<<24, fold8(s[16:24], 3)|fold8(s[24:32], 3)<<24,
					fold8(s[32:40], 3)|fold8(s[40:48], 3)<<24, fold8(s[48:56], 3)|fold8(s[56:64], 3)<<24)
				all |= orOctets(s)
			}
		}
	}
	if len(dst) == 0 {
		return all
	}
	w := uint(width)
	acc := dst[0]
	for len(src) > 0 && len(dst) > 1 {
		for fill+w <= 64 && len(src) > 0 {
			v := src[0]
			src = src[1:]
			all |= v
			acc |= v << (fill & 63)
			fill += w
		}
		if fill == 64 {
			dst[0] = acc
			dst = dst[1:]
			acc, fill = 0, 0
		} else if len(src) > 0 {
			v := src[0]
			src = src[1:]
			all |= v
			dst[0] = acc | v<<(fill&63)
			dst = dst[1:]
			acc = v >> ((64 - fill) & 63)
			fill += w - 64
		}
	}
	if len(dst) > 0 { // always: the loop leaves a word; prove cannot see it
		dst[0] = acc
	}
	return all
}
