// Package simd is BIPie's Vector Toolbox (paper §3): a dependency-free
// library of low-level vector primitives used by the selection and
// aggregation kernels.
//
// The paper's implementation uses AVX2 intrinsics (32 one-byte lanes per
// register). Go exposes no SIMD intrinsics, so this package implements the
// same lane-oriented operations as SWAR — "SIMD within a register" — on
// uint64 words: 8 one-byte lanes, 4 two-byte lanes, or 2 four-byte lanes per
// word. Every operation is branch-free and processes all lanes of a word
// with a constant instruction sequence, which preserves the architectural
// properties the paper's algorithms rely on (predictable instruction
// streams, no data-dependent branches, per-lane compare-to-mask and mask-add
// accumulation). Only the lane count per "register" differs.
//
//bipie:kernelpkg
package simd

// Lane counts per 64-bit word for each element width.
const (
	Lanes8  = 8 // one-byte lanes
	Lanes16 = 4 // two-byte lanes
	Lanes32 = 2 // four-byte lanes
)

// Per-width constants used by the SWAR kernels: L* has the low bit of every
// lane set, H* the high bit of every lane.
const (
	lo8  uint64 = 0x0101010101010101
	hi8  uint64 = 0x8080808080808080
	lo16 uint64 = 0x0001000100010001
	hi16 uint64 = 0x8000800080008000
	lo32 uint64 = 0x0000000100000001
	hi32 uint64 = 0x8000000080000000
)

// Broadcast8 replicates b into all 8 byte lanes of a word
// (the SWAR analogue of VPBROADCASTB).
//
//bipie:kernel
func Broadcast8(b uint8) uint64 { return uint64(b) * lo8 }

// Broadcast16 replicates v into all 4 two-byte lanes of a word.
//
//bipie:kernel
func Broadcast16(v uint16) uint64 { return uint64(v) * lo16 }

// Broadcast32 replicates v into both 4-byte lanes of a word.
//
//bipie:kernel
func Broadcast32(v uint32) uint64 { return uint64(v)<<32 | uint64(v) }

// CmpEq8 compares each byte lane of x against the corresponding lane of y
// and returns 0xFF in equal lanes, 0x00 otherwise (the SWAR analogue of
// PCMPEQB). This is the mask-producing primitive of in-register aggregation
// (paper §5.3, Algorithm 2).
//
//bipie:kernel
func CmpEq8(x, y uint64) uint64 {
	t := x ^ y // zero byte in equal lanes
	// Exact zero-byte detector: adding 0x7F to the low 7 bits of a lane
	// sets its high bit iff any low bit was set; OR-ing the lane's own high
	// bit covers values >= 0x80. The complement then has 0x80 exactly in
	// zero lanes, with no carries between lanes (unlike the classic
	// (t-lo)&^t&hi trick, whose borrows can leak across lane boundaries).
	d := ^((t&^hi8 + ^hi8) | t | ^hi8)
	// Widen 0x80 markers to 0xFF lane masks.
	return (d >> 7) * 0xFF
}

// CmpEq16 is CmpEq8 for 4 two-byte lanes, returning 0xFFFF in equal lanes.
//
//bipie:kernel
func CmpEq16(x, y uint64) uint64 {
	t := x ^ y
	d := ^((t&^hi16 + ^hi16) | t | ^hi16)
	return (d >> 15) * 0xFFFF
}

// CmpEq32 is CmpEq8 for 2 four-byte lanes, returning 0xFFFFFFFF in equal
// lanes.
//
//bipie:kernel
func CmpEq32(x, y uint64) uint64 {
	t := x ^ y
	d := ^((t&^hi32 + ^hi32) | t | ^hi32)
	return (d >> 31) * 0xFFFFFFFF
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
// analogue of PSADBW against zero). The result is at most 8*255 and exact.
//
//bipie:kernel
func SumLanes8(x uint64) uint64 {
	// Pairwise widening reduction: bytes → 16-bit → 32-bit → scalar.
	s := (x & 0x00FF00FF00FF00FF) + (x >> 8 & 0x00FF00FF00FF00FF)
	s = (s & 0x0000FFFF0000FFFF) + (s >> 16 & 0x0000FFFF0000FFFF)
	return (s & 0xFFFFFFFF) + (s >> 32)
}

// SumLanes16 returns the sum of the 4 unsigned two-byte lanes of x.
//
//bipie:kernel
func SumLanes16(x uint64) uint64 {
	s := (x & 0x0000FFFF0000FFFF) + (x >> 16 & 0x0000FFFF0000FFFF)
	return (s & 0xFFFFFFFF) + (s >> 32)
}

// SumLanes32 returns the sum of the 2 unsigned four-byte lanes of x.
//
//bipie:kernel
func SumLanes32(x uint64) uint64 {
	return (x & 0xFFFFFFFF) + (x >> 32)
}

// ZeroByteCount returns how many of the 8 byte lanes of x are exactly zero.
// Selection uses it to count rejected rows in a selection byte vector word.
//
//bipie:kernel
func ZeroByteCount(x uint64) int {
	d := ^((x&^hi8 + ^hi8) | x | ^hi8)
	return int((d >> 7) * lo8 >> 56)
}

// NonZeroByteCount returns how many of the 8 byte lanes of x are non-zero.
// Applied to a word of a selection byte vector it counts selected rows,
// which is how the engine measures batch selectivity (paper §3).
//
//bipie:kernel
func NonZeroByteCount(x uint64) int {
	return Lanes8 - ZeroByteCount(x)
}
