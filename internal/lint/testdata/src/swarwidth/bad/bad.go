// Package bad exercises the swarwidth finding classes.
//
//bipie:kernelpkg
package bad

const (
	lo8  = 0x0101010101010101
	hi8  = 0x8080808080808080
	lo16 = 0x0001000100010001

	// ones16 claims 16-bit lanes but repeats every 8 bits.
	ones16 = 0x1111111111111111 // want `mask constant ones16 declares 16-bit lanes but its bit pattern repeats every 8 bits`
)

// CmpEq16 reuses 8-bit masks — the copy-paste bug swarwidth exists for.
func CmpEq16(x, y uint64) uint64 {
	v := x ^ y
	return (v - lo8) &^ v & hi8 // want `8-bit lane identifier lo8` `8-bit lane identifier hi8`
}

// Sum16 shifts by one byte, crossing 16-bit lane boundaries.
func Sum16(x uint64) uint64 {
	return (x >> 8) + (x & lo16) // want `shift by 8 crosses 16-bit lane boundaries`
}

// Add16 masks with an 8-bit-periodic literal in a 16-bit kernel.
func Add16(x, y uint64) uint64 {
	return (x + y) & 0x0F0F0F0F0F0F0F0F // want `8-bit-periodic pattern, inconsistent with 16-bit lanes`
}

// Spread16 was copy-pasted from a byte-expansion loop: the 24-bit step
// lands mid-lane in a 16-bit kernel.
func Spread16(x uint64) uint64 {
	return (x << 24) | (x >> 16) // want `shift by 24 crosses 16-bit lane boundaries`
}

// Spread8 was pasted from the 16-bit spread: its last mask keeps 12-bit
// fields, which run across byte-lane boundaries.
func Spread8(t uint64) uint64 {
	return t&0x003F003F003F003F | t<<2&0x0FFF0FFF0FFF0FFF // want `run of ones over bits \[0,12\) that straddles a 8-bit lane boundary`
}
