// Package good contains SWAR code swarwidth must stay silent on.
//
//bipie:kernelpkg
package good

const (
	lo8  = 0x0101010101010101
	hi8  = 0x8080808080808080
	lo16 = 0x0001000100010001
	hi16 = 0x8000800080008000
)

// Broadcast8 fills all eight byte lanes.
func Broadcast8(b uint8) uint64 { return uint64(b) * lo8 }

// HighBits8 extracts each lane's high bit: shift by width-1 is legal.
func HighBits8(x uint64) uint64 { return (x >> 7) & lo8 }

// zeroLanes is width-free, as bitpack's zero-lane detector is: the lanes'
// top bits arrive as h, and its name carries no width to check.
func zeroLanes(t, h uint64) uint64 { return ^((t&^h + ^h) | t | ^h) }

// CmpEq16 hands the detector the top bits of its own lane width.
func CmpEq16(x, y uint64) uint64 { return (zeroLanes(x^y, hi16) >> 15) * 0xFFFF }

// Sum8 widens 8-bit lanes through a 16-bit-periodic mask — the legal
// accumulator-widening idiom (wider periods divide evenly into narrower
// kernels' lane structure).
func Sum8(x uint64) uint64 {
	lo := x & 0x00FF00FF00FF00FF
	hi := (x >> 8) & 0x00FF00FF00FF00FF
	return lo + hi
}

// Extract32 does bit-packed word addressing: >>6 and &63 are bit-position
// arithmetic, not lane geometry, and must not be flagged.
func Extract32(words []uint64, bitPos uint64) uint64 {
	return words[bitPos>>6] >> (bitPos & 63)
}

// Load16x4 ends in a digit that is not a lane width and is unchecked.
func Load16x4(v []uint16) uint64 {
	return uint64(v[0]) | uint64(v[1])<<16 | uint64(v[2])<<32 | uint64(v[3])<<48
}

// CmpLEPackedLanes mirrors the packed-compare kernels: every mask is
// computed from a runtime lane width, the name carries no width suffix,
// and every shift distance is a variable — nothing for swarwidth to pin a
// width against, so it must stay silent.
func CmpLEPackedLanes(x, t uint64, w uint) uint64 {
	mask := uint64(1)<<w - 1
	var em, oem uint64
	for off := uint(0); off < 64; off += 2 * w {
		em |= mask << off
		oem |= 1 << off
	}
	g := oem << w
	tg := t*oem | g
	return ((tg - x&em) >> w) & oem
}

// Indicator8 collapses per-lane borrow bits to bytes: width-1 high-bit
// shifts and byte-periodic masks agree with the 8 suffix.
func Indicator8(ind uint64) uint64 {
	return (ind >> 7) & lo8
}

// TimedSum16 is a width-suffixed kernel whose body mixes lane arithmetic
// with tracer-style identifiers (t0, phaseID8, spanStart): none of them
// match the lane-constant naming convention, so the width checker must not
// mistake instrumentation plumbing for lane geometry. (hotalloc, not
// swarwidth, is the analyzer that polices tracer calls in kernels.)
func TimedSum16(vals []uint64, t0 int64, phaseID8 uint8) uint64 {
	var s uint64
	spanStart := t0
	for _, v := range vals {
		s += (v & lo16) + ((v >> 16) & lo16)
	}
	_ = spanStart
	_ = phaseID8
	return s
}

// Spread32, Spread16 and Spread8 mirror bitpack's three-word period chain:
// each step moves the upper field of every lane pair into its own lane.
// The step's masks repeat every two lanes and its shift crosses a lane
// boundary by design; the mask says where the field lands, so neither is
// flagged.
func Spread32(c uint64) uint64 {
	return c&0x0000000000FFFFFF | c<<8&0x00FFFFFF00000000
}

func Spread16(c uint64) uint64 {
	t := Spread32(c)
	return t&0x00000FFF00000FFF | t<<4&0x0FFF00000FFF0000
}

func Spread8(c uint64) uint64 {
	t := Spread16(c)
	return t&0x003F003F003F003F | t<<2&0x3F003F003F003F00
}

// SpreadNibbles8 reaches its mask through an OR: still a masked field move,
// and runs that cover whole byte lanes are consistent with byte lanes.
func SpreadNibbles8(x uint32) uint64 {
	t := uint64(x)
	t = (t | t<<16) & 0x0000FFFF0000FFFF
	t = (t | t<<8) & 0x00FF00FF00FF00FF
	return (t | t<<4) & 0x0F0F0F0F0F0F0F0F
}

// UnpackPeriod8 is a three-word period body: the constant cross-word
// shifts that cut 192 bits into 48-bit chunks are whole bytes and must not
// be flagged, in byte or in 16-bit lanes.
func UnpackPeriod8(dst []uint64, w0, w1, w2 uint64) {
	_ = dst[3]
	dst[0] = Spread8(w0)
	dst[1] = Spread8(w0>>48 | w1<<16)
	dst[2] = Spread8(w1>>32 | w2<<32)
	dst[3] = Spread8(w2 >> 16)
}

func UnpackPeriod16(dst []uint64, w0, w1, w2 uint64) {
	_ = dst[3]
	dst[0] = Spread16(w0)
	dst[1] = Spread16(w0>>48 | w1<<16)
	dst[2] = Spread16(w1>>32 | w2<<32)
	dst[3] = Spread16(w2 >> 16)
}
