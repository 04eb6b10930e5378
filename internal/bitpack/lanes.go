package bitpack

// The Vector Toolbox (paper §3): the lane primitives the selection and
// aggregation kernels are built from. The paper uses AVX2 intrinsics, 32
// one-byte lanes per register; Go exposes none, so these are the same
// lane-oriented operations as SWAR ("SIMD within a register") on uint64
// words of 8 one-byte, 4 two-byte or 2 four-byte lanes. Every operation is
// branch-free and runs all lanes of a word with a constant instruction
// sequence — the properties the paper's algorithms rely on (no
// data-dependent branches, per-lane compare-to-mask and mask-add
// accumulation). Only the lane count per "register" differs.

// Lane counts per 64-bit word for each element width.
const (
	Lanes8  = 8 // one-byte lanes
	Lanes16 = 4 // two-byte lanes
	Lanes32 = 2 // four-byte lanes
)

// The low bit (lo*) and the high bit (hi*) of every 8-, 16- and 32-bit lane
// of a word: multiplying by lo* broadcasts a lane value.
const (
	lo8  uint64 = 0x0101010101010101
	hi8  uint64 = 0x8080808080808080
	lo16 uint64 = 0x0001000100010001
	hi16 uint64 = 0x8000800080008000
	lo32 uint64 = 0x0000000100000001
	hi32 uint64 = 0x8000000080000000
)

// Broadcast8, Broadcast16 and Broadcast32 replicate a value into every
// lane of a word (the SWAR analogue of VPBROADCASTB/W/D).
//
//bipie:kernel
func Broadcast8(b uint8) uint64 { return uint64(b) * lo8 }

//bipie:kernel
func Broadcast16(v uint16) uint64 { return uint64(v) * lo16 }

//bipie:kernel
func Broadcast32(v uint32) uint64 { return uint64(v)<<32 | uint64(v) }

// zeroLanes returns the top bit of exactly the lanes of t that are zero, h
// holding the top bit of every lane. Adding ^h to a lane's low bits sets its
// top bit iff any low bit was set, and OR-ing t covers the top bit itself;
// no carry crosses into the next lane (unlike the classic (t-lo)&^t&h
// trick, whose borrows can leak across lane boundaries).
//
//bipie:inline
func zeroLanes(t, h uint64) uint64 { return ^((t&^h + ^h) | t | ^h) }

// CmpEq8 compares each byte lane of x against the corresponding lane of y
// and returns 0xFF in equal lanes, 0x00 otherwise (the SWAR analogue of
// PCMPEQB). This is the mask-producing primitive of in-register aggregation
// (paper §5.3, Algorithm 2). CmpEq16 and CmpEq32 are the same compare on
// two- and four-byte lanes.
//
//bipie:kernel
func CmpEq8(x, y uint64) uint64 { return (zeroLanes(x^y, hi8) >> 7) * 0xFF }

//bipie:kernel
func CmpEq16(x, y uint64) uint64 { return (zeroLanes(x^y, hi16) >> 15) * 0xFFFF }

//bipie:kernel
func CmpEq32(x, y uint64) uint64 { return (zeroLanes(x^y, hi32) >> 31) * 0xFFFFFFFF }

// NonZeroByteCount returns how many of the 8 byte lanes of x are non-zero.
// Applied to a word of a selection byte vector it counts selected rows,
// which is how the engine measures batch selectivity (paper §3).
//
//bipie:kernel
func NonZeroByteCount(x uint64) int {
	return Lanes8 - int(zeroLanes(x, hi8)>>7*lo8>>56)
}

// Add8 adds the 8 byte lanes of x and y independently, with wraparound
// within each lane and no carry between lanes (the SWAR analogue of PADDB).
//
//bipie:kernel
func Add8(x, y uint64) uint64 {
	// Add the low 7 bits of each lane, then fix up the top bits with xor so
	// carries cannot cross lane boundaries.
	return (x&^hi8 + y&^hi8) ^ ((x ^ y) & hi8)
}

// Sub8 subtracts each byte lane of y from x independently with wraparound.
//
//bipie:kernel
func Sub8(x, y uint64) uint64 {
	return (x | hi8) - (y &^ hi8) ^ ((x ^ ^y) & hi8)
}

// SumLanes8 returns the sum of the 8 unsigned byte lanes of x (the SWAR
// analogue of PSADBW against zero), exact up to 8*255; SumLanes16 and
// SumLanes32 sum the two- and four-byte lanes.
//
//bipie:kernel
func SumLanes8(x uint64) uint64 {
	// Pairwise widening reduction: bytes → 16-bit → 32-bit → scalar.
	s := (x & 0x00FF00FF00FF00FF) + (x >> 8 & 0x00FF00FF00FF00FF)
	s = (s & 0x0000FFFF0000FFFF) + (s >> 16 & 0x0000FFFF0000FFFF)
	return (s & 0xFFFFFFFF) + (s >> 32)
}

//bipie:kernel
func SumLanes16(x uint64) uint64 {
	s := (x & 0x0000FFFF0000FFFF) + (x >> 16 & 0x0000FFFF0000FFFF)
	return (s & 0xFFFFFFFF) + (s >> 32)
}

//bipie:kernel
func SumLanes32(x uint64) uint64 { return (x & 0xFFFFFFFF) + (x >> 32) }
