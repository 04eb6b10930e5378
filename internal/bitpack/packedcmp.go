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
// (laneCmp.le), the per-lane indicator bits become eight 0x00/0xFF bytes,
// and dst is overwritten or ANDed eight lanes per store. Byte lanes hold
// their indicators in mask order already; 16- and 32-bit lanes compress
// theirs (pack16x4, pack32x4), except at width 12, whose fields are cut
// into an even and an odd word of 16-bit lanes so that each indicator
// lands in its own mask byte (cmpEvenOdd16). Nothing is written but the
// mask. Every other width, and the head and tail lanes around a kernel
// body (splitLanes), take a scalar loop that fuses the two-word windowed
// extraction (the same window unpackWindowed uses; Pack's +1 pad word
// guarantees words[w+1] exists) with a branch-free borrow test, so even
// the fallback never round-trips through an unpack buffer.
//
// Asked to count (CmpPacked), a compare also returns the lanes the mask it
// leaves keeps, summed off each word as it stores it: a scan's last
// conjunct hands the batch its kept rows without a pass over the mask.

// CmpOp is the predicate of a packed compare, value OP threshold; sel's
// compare-to-mask kernels share it.
type CmpOp uint8

const (
	CmpLE CmpOp = iota // value <= t
	CmpGE              // value >= t
	CmpEQ              // value == t
	CmpNE              // value != t
)

// CmpPacked writes the byte mask of value op t for lanes
// [start, start+len(dst)) into dst (0xFF selected, 0x00 not). With
// and=false dst is overwritten; with and=true the mask is ANDed into the
// 0x00/0xFF mask dst holds, the conjunct-combining mode of the scan. dst is
// typically a sel.ByteVec reslice; the []byte form avoids an import cycle
// (sel imports bitpack). With count set it returns how many lanes the mask
// left in dst keeps, counted from each word as it is stored — the batch's
// kept rows when this is its last conjunct, with no pass over dst of their
// own; without, it returns 0.
//
//bipie:kernel
func (v *Vector) CmpPacked(dst []byte, start int, op CmpOp, t uint64, and, count bool) int {
	v.CheckUnpack(64, start, len(dst))
	var a, b uint64
	var neg byte
	switch op {
	case CmpLE:
		if t >= v.Mask() {
			return fillKeepAll(dst, and, count)
		}
		a = t
	case CmpGE:
		if t == 0 {
			return fillKeepAll(dst, and, count)
		}
		if t > v.Mask() {
			return fillNone(dst)
		}
		a, neg = t-1, 0xFF // value >= t  <=>  NOT (value <= t-1)
	case CmpEQ:
		if t > v.Mask() {
			return fillNone(dst)
		}
		b = t
	default: // CmpNE
		if t > v.Mask() {
			return fillKeepAll(dst, and, count)
		}
		b, neg = t, 0xFF
	}
	if count {
		return packedCmp[keptLanes](v, dst, start, a, b, neg, and)
	}
	packedCmp[noTally](v, dst, start, a, b, neg, and)
	return 0
}

// CmpLEPacked writes (or ANDs, see CmpPacked) the byte mask of value <= t
// for lanes [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) CmpLEPacked(dst []byte, start int, t uint64, and bool) {
	v.CmpPacked(dst, start, CmpLE, t, and, false)
}

// CmpGEPacked writes (or ANDs, see CmpPacked) the byte mask of
// value >= t for lanes [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) CmpGEPacked(dst []byte, start int, t uint64, and bool) {
	v.CmpPacked(dst, start, CmpGE, t, and, false)
}

// CmpEQPacked writes (or ANDs, see CmpPacked) the byte mask of
// value == t for lanes [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) CmpEQPacked(dst []byte, start int, t uint64, and bool) {
	v.CmpPacked(dst, start, CmpEQ, t, and, false)
}

// CmpNEPacked writes (or ANDs, see CmpPacked) the byte mask of
// value != t for lanes [start, start+len(dst)) into dst.
//
//bipie:kernel
func (v *Vector) CmpNEPacked(dst []byte, start int, t uint64, and bool) {
	v.CmpPacked(dst, start, CmpNE, t, and, false)
}

// fillKeepAll resolves a predicate that matches every lane: an AND
// destination is left untouched, an overwrite destination saturates. With
// count set it returns the lanes dst then keeps.
//
//bipie:inline
func fillKeepAll(dst []byte, and, count bool) int {
	if !and {
		for i := range dst {
			dst[i] = 0xFF
		}
	}
	if !count {
		return 0
	}
	kept := 0
	for _, m := range dst {
		kept += int(m & 1)
	}
	return kept
}

// fillNone resolves a predicate that matches no lane; AND and overwrite
// agree on all-zero, and no lane is kept.
//
//bipie:inline
func fillNone(dst []byte) int {
	for i := range dst {
		dst[i] = 0
	}
	return 0
}

// A compare core is instantiated at one of two tallies. At keptLanes
// every mask store also yields the lanes it keeps; at noTally that count
// folds away when the core compiles, so a compare not asked to count runs
// loops with no trace of it — no branch per store, no accumulator holding
// a register. The two types differ in shape only so that each
// instantiation gets code of its own. A core reads tallies once, before
// its loops, and hands the constant to store: a generic call inside a
// loop would load and check the instantiation's dictionary every store.
type (
	noTally   uint8
	keptLanes uint16
	tally     interface{ noTally | keptLanes }
)

// tallies reports whether cores instantiated at T count: keptLanes' all-ones
// value is wider than a byte.
//
//bipie:inline
func tallies[T tally]() bool { return ^T(0) != 0xFF }

// packedCmp is the core behind CmpPacked: the mask of value^b <= a
// (complemented when neg is 0xFF) for lanes [start, start+len(dst)), split
// into scalar head, kernel body and scalar tail, and the lanes it keeps
// when T counts.
//
//bipie:kernel
func packedCmp[T tally](v *Vector, dst []byte, start int, a, b uint64, neg byte, and bool) int {
	ovr := byte(0xFF)
	if and {
		ovr = 0
	}
	lane := WordBytes(v.bits)
	head, body := v.split(lane, start, len(dst))
	body &^= 7 // a mask store is eight lanes: two words of width 16, four of 32
	n := scalarCmp[T](v, dst[:head], start, a, b, neg, ovr)
	d, src := dst[head:head+body], v.wordsAt(start+head)
	switch lane {
	case 1:
		n += cmpBody8[T](d, src, v.bits, newLaneCmp(lo8, 7, a, b, neg, ovr, tallies[T]()))
	case 2:
		n += cmpBody16[T](d, src, v.bits, newLaneCmp(lo16, 15, a, b, neg, ovr, tallies[T]()))
	case 4:
		n += cmpBody32[T](d, src, v.bits, newLaneCmp(lo32, 31, a, b, neg, ovr, tallies[T]()))
	}
	return n + scalarCmp[T](v, dst[head+body:], start+head+body, a, b, neg, ovr)
}

// laneCmp holds one compare's constants broadcast to every lane of a word:
// h the lanes' top bits, a and b the predicate operands (ah = a|h), the
// negate and overwrite flags as whole-word masks, and cnt the low bit of
// every byte when the compare counts, 0 when it does not (count).
type laneCmp struct{ a, ah, b, h, neg, ovr, cnt uint64 }

// newLaneCmp broadcasts a compare over the lanes whose low bits are ones
// and whose top bit is bit top.
//
//bipie:inline
func newLaneCmp(ones uint64, top uint, a, b uint64, neg, ovr byte, count bool) laneCmp {
	h := ones << top
	k := laneCmp{a: a * ones, ah: a*ones | h, b: b * ones, h: h, neg: -uint64(neg & 1), ovr: -uint64(ovr & 1)}
	if count {
		k.cnt = lo8
	}
	return k
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
// stores them (put): eight lanes per store. When count is set it returns
// the lanes the stored word keeps, and 0 otherwise; the cores pass a
// count their instantiation fixes, so the branch folds away.
//
//bipie:inline
func (k *laneCmp) store(dst []byte, ind uint64, count bool) int {
	r := k.put(dst, ind*0xFF)
	if !count {
		return 0
	}
	return k.count(r)
}

// put overwrites dst[:8] with the mask word m, eight 0x00/0xFF bytes, or
// ANDs it in, and returns the word it stored.
//
//bipie:inline
func (k *laneCmp) put(dst []byte, m uint64) uint64 {
	r := (binary.LittleEndian.Uint64(dst) | k.ovr) & (m ^ k.neg)
	binary.LittleEndian.PutUint64(dst, r)
	return r
}

// count returns the lanes the stored mask word r keeps — the byte sum of
// its low bits — when the compare counts, and 0 when it does not, branch
// free: cnt is then 0.
//
//bipie:inline
func (k *laneCmp) count(r uint64) int {
	return int((r & k.cnt) * k.cnt >> 56)
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
func cmpBody8[T tally](d []byte, src []uint64, width uint8, k laneCmp) (n int) {
	count := tallies[T]()
	switch width {
	case 8:
		for ; len(d) >= 8 && len(src) > 0; d, src = d[8:], src[1:] {
			n += k.store(d[:8], k.le(src[0], false)>>7, count)
		}
	case 4:
		for ; len(d) >= 16 && len(src) > 0; d, src = d[16:], src[1:] {
			x := src[0]
			n += k.store(d[:8], k.le(spreadNibbles(uint32(x)), true)>>7, count)
			n += k.store(d[8:16], k.le(spreadNibbles(uint32(x>>32)), true)>>7, count)
		}
	case 2:
		for ; len(d) >= 32 && len(src) > 0; d, src = d[32:], src[1:] {
			x := src[0]
			n += k.store(d[:8], k.le(spreadCrumbs(uint16(x)), true)>>7, count)
			n += k.store(d[8:16], k.le(spreadCrumbs(uint16(x>>16)), true)>>7, count)
			n += k.store(d[16:24], k.le(spreadCrumbs(uint16(x>>32)), true)>>7, count)
			n += k.store(d[24:32], k.le(spreadCrumbs(uint16(x>>48)), true)>>7, count)
		}
	case 1:
		for ; len(d) >= 64 && len(src) > 0; d, src = d[64:], src[1:] {
			x := src[0]
			n += k.store(d[:8], k.le(spreadBits(uint8(x)), true)>>7, count)
			n += k.store(d[8:16], k.le(spreadBits(uint8(x>>8)), true)>>7, count)
			n += k.store(d[16:24], k.le(spreadBits(uint8(x>>16)), true)>>7, count)
			n += k.store(d[24:32], k.le(spreadBits(uint8(x>>24)), true)>>7, count)
			n += k.store(d[32:40], k.le(spreadBits(uint8(x>>32)), true)>>7, count)
			n += k.store(d[40:48], k.le(spreadBits(uint8(x>>40)), true)>>7, count)
			n += k.store(d[48:56], k.le(spreadBits(uint8(x>>48)), true)>>7, count)
			n += k.store(d[56:64], k.le(spreadBits(uint8(x>>56)), true)>>7, count)
		}
	case 6:
		for ; len(d) >= 32 && len(src) >= 3; d, src = d[32:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			n += k.store(d[:8], k.le(spread8(c0), true)>>7, count)
			n += k.store(d[8:16], k.le(spread8(c1), true)>>7, count)
			n += k.store(d[16:24], k.le(spread8(c2), true)>>7, count)
			n += k.store(d[24:32], k.le(spread8(c3), true)>>7, count)
		}
	case 3:
		for ; len(d) >= 64 && len(src) >= 3; d, src = d[64:], src[3:] {
			var c [4]uint64
			c[0], c[1], c[2], c[3] = chunks48(src[0], src[1], src[2])
			for q, i := d[:64], 0; len(q) >= 16; q, i = q[16:], i+1 {
				x := spread4(c[i&3])
				n += k.store(q[:8], k.le(spreadNibbles(uint32(x)), true)>>7, count)
				n += k.store(q[8:16], k.le(spreadNibbles(uint32(x>>32)), true)>>7, count)
			}
		}
	}
	return n
}

// cmpBody16 is the 16-bit-lane compare core (widths 12 and 16): eight
// lanes make one mask store. Width 16 compares its words as they are and
// compresses each word's four indicators (pack16x4); width 12 lays its
// lanes out so that they need no compressing (cmpEvenOdd16).
//
//bipie:kernel
//bipie:nobce
func cmpBody16[T tally](d []byte, src []uint64, width uint8, k laneCmp) (n int) {
	count := tallies[T]()
	switch width {
	case 16:
		for ; len(d) >= 8 && len(src) >= 2; d, src = d[8:], src[2:] {
			n += k.store(d[:8], pack16x4(k.le(src[0], false))|pack16x4(k.le(src[1], false))<<32, count)
		}
	case 12:
		n = cmpEvenOdd16(d, src, &k)
	}
	return n
}

// cmpEvenOdd16 is the 12-bit compare: sixteen lanes, two mask stores, per
// three-word period. Each pair of 48-bit chunks becomes an even word
// (lanes 0, 2, 4, 6) and an odd word (1, 3, 5, 7) of 16-bit lanes, every
// field cut straight out of its chunk with its guard bit clear (half16).
// Each lane's indicator, at its 16-bit lane's top bit, then spreads to its
// mask byte in place — byte 2j for the even word's lane j (×0xFF), byte
// 2j+1 for the odd word's (×0xFF00) — so the indicators land in mask order
// with no compress step. k is read through its pointer, so its constants
// ride as memory operands and the loop's own state keeps the registers;
// the second pair's words are read after the first store, which orders
// them after it; and the loop leaves before a reslice would empty a slice,
// so no reslice needs a pointer guard.
//
//bipie:kernel
//bipie:nobce
func cmpEvenOdd16(d []byte, src []uint64, k *laneCmp) (n int) {
	for len(d) >= 16 && len(src) >= 3 {
		c0, c1 := src[0], src[0]>>48|src[1]<<16
		e := half16(c0) | half16(c1)<<32
		o := half16(c0>>12) | half16(c1>>12)<<32
		n += k.count(k.put(d[:8], k.le(e, true)>>15*0xFF|k.le(o, true)>>15*0xFF00))
		c2, c3 := src[1]>>32|src[2]<<32, src[2]>>16
		e = half16(c2) | half16(c3)<<32
		o = half16(c2>>12) | half16(c3>>12)<<32
		n += k.count(k.put(d[8:16], k.le(e, true)>>15*0xFF|k.le(o, true)>>15*0xFF00))
		if len(d) < 17 || len(src) < 4 {
			break
		}
		d, src = d[16:], src[3:]
	}
	return n
}

// half16 places fields 0 and 2 of a chunk of 12-bit fields in the two
// 16-bit lanes of its low half: field 2 moves from bit 24 to bit 16.
//
//bipie:inline
func half16(c uint64) uint64 {
	return c&0x0FFF | c>>8&0x0FFF0000
}

// cmpBody32 is the 32-bit-lane compare core (widths 24 and 32): four lane
// words make the eight lanes of one mask store.
//
//bipie:kernel
//bipie:nobce
func cmpBody32[T tally](d []byte, src []uint64, width uint8, k laneCmp) (n int) {
	count := tallies[T]()
	switch width {
	case 32:
		for ; len(d) >= 8 && len(src) >= 4; d, src = d[8:], src[4:] {
			lo := pack32x4(k.le(src[0], false), k.le(src[1], false))
			n += k.store(d[:8], lo|pack32x4(k.le(src[2], false), k.le(src[3], false))<<32, count)
		}
	case 24:
		for ; len(d) >= 8 && len(src) >= 3; d, src = d[8:], src[3:] {
			c0, c1, c2, c3 := chunks48(src[0], src[1], src[2])
			lo := pack32x4(k.le(spread32(c0), true), k.le(spread32(c1), true))
			n += k.store(d[:8], lo|pack32x4(k.le(spread32(c2), true), k.le(spread32(c3), true))<<32, count)
		}
	}
	return n
}

// scalarCmp compares lanes [start, start+len(dst)) of v with the fused
// two-word windowed extraction, and returns the lanes it keeps when T
// counts. The compare is branch-free: the borrow of a - (value^b) is 1
// exactly when value^b > a. The bit-position-driven word loads (words[w],
// pad word words[w+1]) are the only bounds checks; the mask stores range
// over dst check-free.
//
//bipie:kernel
//bipie:nobce
func scalarCmp[T tally](v *Vector, dst []byte, start int, a, b uint64, neg, ovr byte) (n int) {
	width := uint64(v.bits)
	mask := v.Mask()
	words := v.words
	bitPos := uint64(start) * width
	keep := ^neg
	count := tallies[T]()
	for i := range dst {
		w := bitPos >> 6
		off := bitPos & 63
		val := words[w] >> off
		if off+width > 64 {
			val |= words[w+1] << (64 - off)
		}
		_, borrow := bits.Sub64(a, val&mask^b, 0)
		m := (dst[i] | ovr) & (byte(-borrow) ^ keep)
		dst[i] = m
		if count {
			n += int(m & 1)
		}
		bitPos += width
	}
	return n
}
