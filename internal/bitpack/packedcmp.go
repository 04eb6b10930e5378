package bitpack

import (
	"encoding/binary"
	"math/bits"
)

// Packed-domain compare kernels: evaluate value OP threshold directly on
// the bit-packed words, writing a 0x00/0xFF byte mask per lane, without
// ever materializing an unpacked value array. This is the
// filter-on-encoded-data technique of Willhalm et al. the paper's scan
// builds on (§5/§7): a pushed predicate's threshold is translated into
// frame-of-reference offset space once, and the batch kernel then runs on
// the packed representation itself.
//
// One predicate form serves all four ops: lane ^ b <= a. LE(t) is
// (a, b) = (t, 0); EQ(t) is (0, t), because x == t exactly when x^t <= 0;
// GE(t) = NOT LE(t-1) and NE = NOT EQ negate the mask. Range clamping
// (threshold at or beyond the width mask) resolves to constant fills
// before any kernel runs.
//
// Widths with a word-parallel kernel (hasKernel: those dividing 64 and the
// three-word period family 3, 6, 12, 24) share unpack's pieces: a chunk of
// packed bits is spread into 8-, 16- or 32-bit lanes in a register, every
// lane is compared against the broadcast threshold with one subtraction
// (laneCmp.le), the per-lane indicator bits are compressed to eight
// 0x00/0xFF bytes, and dst is overwritten or ANDed eight lanes per store.
// Nothing is written but the mask. Every other width, and the head and tail
// lanes around a kernel body (splitLanes), take a scalar loop that fuses
// the two-word windowed extraction (the same window unpackWindowed uses;
// Pack's +1 pad word guarantees words[w+1] exists) with a branch-free
// borrow test, so even the fallback never round-trips through an unpack
// buffer.

// CmpLEPacked writes the byte mask of value <= t for lanes
// [start, start+len(dst)) into dst (0xFF selected, 0x00 not). With
// and=false dst is overwritten; with and=true the mask is ANDed into dst,
// the conjunct-combining mode of the scan. dst is typically a sel.ByteVec
// reslice; the []byte form avoids an import cycle (sel imports bitpack).
//
//bipie:kernel
func (v *Vector) CmpLEPacked(dst []byte, start int, t uint64, and bool) {
	v.CheckUnpack(64, start, len(dst))
	if t >= v.Mask() {
		fillKeepAll(dst, and)
		return
	}
	v.packedCmp(dst, start, t, 0, 0, and)
}

// CmpGEPacked writes (or ANDs, see CmpLEPacked) the byte mask of
// value >= t for lanes [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) CmpGEPacked(dst []byte, start int, t uint64, and bool) {
	v.CheckUnpack(64, start, len(dst))
	if t == 0 {
		fillKeepAll(dst, and)
		return
	}
	if t > v.Mask() {
		fillNone(dst)
		return
	}
	// value >= t  <=>  NOT (value <= t-1)
	v.packedCmp(dst, start, t-1, 0, 0xFF, and)
}

// CmpEQPacked writes (or ANDs, see CmpLEPacked) the byte mask of
// value == t for lanes [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) CmpEQPacked(dst []byte, start int, t uint64, and bool) {
	v.CheckUnpack(64, start, len(dst))
	if t > v.Mask() {
		fillNone(dst)
		return
	}
	v.packedCmp(dst, start, 0, t, 0, and)
}

// CmpNEPacked writes (or ANDs, see CmpLEPacked) the byte mask of
// value != t for lanes [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) CmpNEPacked(dst []byte, start int, t uint64, and bool) {
	v.CheckUnpack(64, start, len(dst))
	if t > v.Mask() {
		fillKeepAll(dst, and)
		return
	}
	v.packedCmp(dst, start, 0, t, 0xFF, and)
}

// fillKeepAll resolves a predicate that matches every lane: an AND
// destination is left untouched, an overwrite destination saturates.
//
//bipie:inline
func fillKeepAll(dst []byte, and bool) {
	if and {
		return
	}
	for i := range dst {
		dst[i] = 0xFF
	}
}

// fillNone resolves a predicate that matches no lane; AND and overwrite
// agree on all-zero.
//
//bipie:inline
func fillNone(dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}

// packedCmp is the core behind the four Cmp*Packed kernels: the mask of
// value^b <= a (complemented when neg is 0xFF) for lanes
// [start, start+len(dst)), split into scalar head, kernel body and scalar
// tail.
//
//bipie:kernel
func (v *Vector) packedCmp(dst []byte, start int, a, b uint64, neg byte, and bool) {
	ovr := byte(0xFF)
	if and {
		ovr = 0
	}
	lane := WordBytes(v.bits)
	head, body := v.split(lane, start, len(dst))
	body &^= 7 // a mask store is eight lanes: two words of width 16, four of 32
	v.scalarCmp(dst[:head], start, a, b, neg, ovr)
	d, src := dst[head:head+body], v.wordsAt(start+head)
	switch lane {
	case 1:
		cmpBody8(d, src, v.bits, newLaneCmp(lo8, 7, a, b, neg, ovr))
	case 2:
		cmpBody16(d, src, v.bits, newLaneCmp(lo16, 15, a, b, neg, ovr))
	case 4:
		cmpBody32(d, src, v.bits, newLaneCmp(lo32, 31, a, b, neg, ovr))
	}
	v.scalarCmp(dst[head+body:], start+head+body, a, b, neg, ovr)
}

// laneCmp holds one compare's constants broadcast to every lane of a word:
// h the lanes' top bits, a and b the predicate operands (ah = a|h), and the
// negate and overwrite flags as whole-word masks.
type laneCmp struct{ a, ah, b, h, neg, ovr uint64 }

// newLaneCmp broadcasts a compare over the lanes whose low bits are ones
// and whose top bit is bit top.
//
//bipie:inline
func newLaneCmp(ones uint64, top uint, a, b uint64, neg, ovr byte) laneCmp {
	h := ones << top
	return laneCmp{a: a * ones, ah: a*ones | h, b: b * ones, h: h, neg: -uint64(neg & 1), ovr: -uint64(ovr & 1)}
}

// le returns, in each lane's top bit, whether lane^b <= a. With spare (the
// values leave the lane's top bit free: every width but 8, 16 and 32) the
// top bit is a guard: (a|h) - y keeps it exactly when y <= a, and no lane
// borrows from its neighbour because each difference is positive. Without
// a spare bit the same subtraction runs on the low bits only and the top
// bits decide when they differ — the carry-safe form.
//
//bipie:inline
func (k *laneCmp) le(x uint64, spare bool) uint64 {
	y := x ^ k.b
	if spare {
		return (k.ah - y) & k.h
	}
	return (k.a&^y | ^(k.a^y)&(k.ah-y&^k.h)) & k.h
}

// store turns eight 0/1 byte indicators into 0x00/0xFF mask bytes and
// overwrites dst[:8] with them or ANDs them in: eight lanes per store.
//
//bipie:inline
func (k *laneCmp) store(dst []byte, ind uint64) {
	m := ind*0xFF ^ k.neg
	binary.LittleEndian.PutUint64(dst, (binary.LittleEndian.Uint64(dst)|k.ovr)&m)
}

// pack16x4 compresses the top bits of four 16-bit lanes to four 0/1 bytes.
//
//bipie:inline
func pack16x4(ind uint64) uint64 {
	t := ind >> 15
	t = (t | t>>8) & 0x0000010100000101
	return uint64(uint32(t | t>>16))
}

// pack32x4 compresses the top bits of the 32-bit lanes of two words (lanes
// 0-1 in i0, 2-3 in i1) to four 0/1 bytes.
//
//bipie:inline
func pack32x4(i0, i1 uint64) uint64 {
	r := i0>>31 | i1>>15
	return uint64(uint32(r | r>>24))
}

// cmpBody8 is the byte-lane compare core (widths 1, 2, 3, 4, 6 and 8) over
// a kernel body: the loops of unpackBody8, with the store of each eight
// spread lanes replaced by compare, compress and mask store.
//
//bipie:kernel
//bipie:nobce
func cmpBody8(d []byte, src []uint64, width uint8, k laneCmp) {
	switch width {
	case 8:
		for ; len(d) >= 8 && len(src) > 0; d, src = d[8:], src[1:] {
			k.store(d[:8], k.le(src[0], false)>>7)
		}
	case 4:
		for ; len(d) >= 16 && len(src) > 0; d, src = d[16:], src[1:] {
			x := src[0]
			k.store(d[:8], k.le(spreadNibbles(uint32(x)), true)>>7)
			k.store(d[8:16], k.le(spreadNibbles(uint32(x>>32)), true)>>7)
		}
	case 2:
		for ; len(d) >= 32 && len(src) > 0; d, src = d[32:], src[1:] {
			x := src[0]
			k.store(d[:8], k.le(spreadCrumbs(uint16(x)), true)>>7)
			k.store(d[8:16], k.le(spreadCrumbs(uint16(x>>16)), true)>>7)
			k.store(d[16:24], k.le(spreadCrumbs(uint16(x>>32)), true)>>7)
			k.store(d[24:32], k.le(spreadCrumbs(uint16(x>>48)), true)>>7)
		}
	case 1:
		for ; len(d) >= 64 && len(src) > 0; d, src = d[64:], src[1:] {
			x := src[0]
			k.store(d[:8], k.le(spreadBits(uint8(x)), true)>>7)
			k.store(d[8:16], k.le(spreadBits(uint8(x>>8)), true)>>7)
			k.store(d[16:24], k.le(spreadBits(uint8(x>>16)), true)>>7)
			k.store(d[24:32], k.le(spreadBits(uint8(x>>24)), true)>>7)
			k.store(d[32:40], k.le(spreadBits(uint8(x>>32)), true)>>7)
			k.store(d[40:48], k.le(spreadBits(uint8(x>>40)), true)>>7)
			k.store(d[48:56], k.le(spreadBits(uint8(x>>48)), true)>>7)
			k.store(d[56:64], k.le(spreadBits(uint8(x>>56)), true)>>7)
		}
	case 6:
		for ; len(d) >= 32 && len(src) >= 3; d, src = d[32:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			k.store(d[:8], k.le(spread8(c0), true)>>7)
			k.store(d[8:16], k.le(spread8(c1), true)>>7)
			k.store(d[16:24], k.le(spread8(c2), true)>>7)
			k.store(d[24:32], k.le(spread8(c3), true)>>7)
		}
	case 3:
		for ; len(d) >= 64 && len(src) >= 3; d, src = d[64:], src[3:] {
			var c [4]uint64
			c[0], c[1], c[2], c[3] = chunks48(src[0], src[1], src[2])
			for q, i := d[:64], 0; len(q) >= 16; q, i = q[16:], i+1 {
				x := spread4(c[i&3])
				k.store(q[:8], k.le(spreadNibbles(uint32(x)), true)>>7)
				k.store(q[8:16], k.le(spreadNibbles(uint32(x>>32)), true)>>7)
			}
		}
	}
}

// cmpBody16 is the 16-bit-lane compare core (widths 12 and 16): two lane
// words make the eight lanes of one mask store.
//
//bipie:kernel
//bipie:nobce
func cmpBody16(d []byte, src []uint64, width uint8, k laneCmp) {
	switch width {
	case 16:
		for ; len(d) >= 8 && len(src) >= 2; d, src = d[8:], src[2:] {
			k.store(d[:8], pack16x4(k.le(src[0], false))|pack16x4(k.le(src[1], false))<<32)
		}
	case 12:
		for ; len(d) >= 16 && len(src) >= 3; d, src = d[16:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			k.store(d[:8], pack16x4(k.le(spread16(c0), true))|pack16x4(k.le(spread16(c1), true))<<32)
			k.store(d[8:16], pack16x4(k.le(spread16(c2), true))|pack16x4(k.le(spread16(c3), true))<<32)
		}
	}
}

// cmpBody32 is the 32-bit-lane compare core (widths 24 and 32): four lane
// words make the eight lanes of one mask store.
//
//bipie:kernel
//bipie:nobce
func cmpBody32(d []byte, src []uint64, width uint8, k laneCmp) {
	switch width {
	case 32:
		for ; len(d) >= 8 && len(src) >= 4; d, src = d[8:], src[4:] {
			lo := pack32x4(k.le(src[0], false), k.le(src[1], false))
			k.store(d[:8], lo|pack32x4(k.le(src[2], false), k.le(src[3], false))<<32)
		}
	case 24:
		for ; len(d) >= 8 && len(src) >= 3; d, src = d[8:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			lo := pack32x4(k.le(spread32(c0), true), k.le(spread32(c1), true))
			k.store(d[:8], lo|pack32x4(k.le(spread32(c2), true), k.le(spread32(c3), true))<<32)
		}
	}
}

// scalarCmp compares lanes [start, start+len(dst)) with the fused two-word
// windowed extraction. The compare is branch-free: the borrow of
// a - (value^b) is 1 exactly when value^b > a. The bit-position-driven
// word loads (words[w], pad word words[w+1]) are the only bounds checks;
// the mask stores range over dst check-free.
//
//bipie:kernel
//bipie:nobce
func (v *Vector) scalarCmp(dst []byte, start int, a, b uint64, neg, ovr byte) {
	width := uint64(v.bits)
	mask := v.Mask()
	words := v.words
	bitPos := uint64(start) * width
	keep := ^neg
	for i := range dst {
		w := bitPos >> 6
		off := bitPos & 63
		val := words[w] >> off
		if off+width > 64 {
			val |= words[w+1] << (64 - off)
		}
		_, borrow := bits.Sub64(a, val&mask^b, 0)
		dst[i] = (dst[i] | ovr) & (byte(-borrow) ^ keep)
		bitPos += width
	}
}
