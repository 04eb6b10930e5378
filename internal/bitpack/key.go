package bitpack

// Key writes the cell key of rows [start, start+len(dst)) of one or two
// packed code columns — the multi-aggregate cell walk's per-row byte: a's
// code in the low a.Bits() bits and b's right above it, or a's code alone
// when b is nil. The two widths together must fit a byte. Two 4-bit
// columns (Q1's discount and tax) take a word-parallel body, sixteen keys a
// pair of packed words; every other pair, and the ragged head and tail
// around that body, takes the windowed loop.
//
//bipie:kernel
func Key(dst []uint8, a, b *Vector, start int) {
	if b == nil {
		a.UnpackUint8(dst, start)
		return
	}
	a.CheckUnpack(8-b.bits, start, len(dst))
	b.CheckUnpack(8-a.bits, start, len(dst))
	head, body := len(dst), 0
	if a.bits == 4 && b.bits == 4 {
		head, body = splitLanes(4, start, len(dst))
	}
	keyWindowed(dst[:head], a, b, start)
	keyBody44(dst[head:head+body], a.wordsAt(start+head), b.wordsAt(start+head))
	keyWindowed(dst[head+body:], a, b, start+head+body)
}

// keyWindowed is Key's general loop: both codes through the two-word
// window of Get, any widths and any alignment.
//
//bipie:kernel
func keyWindowed(dst []uint8, a, b *Vector, start int) {
	for i := range dst {
		dst[i] = uint8(a.Get(start+i) | b.Get(start+i)<<a.bits)
	}
}

// keyBody44 builds the keys of two 4-bit columns from word-aligned packed
// words: each word's nibbles spread to bytes, b's moved to the high nibble.
//
//bipie:kernel
//bipie:nobce
func keyBody44(d []uint8, a, b []uint64) {
	for ; len(d) >= 16 && len(a) > 0 && len(b) > 0; d, a, b = d[16:], a[1:], b[1:] {
		x, y := a[0], b[0]
		putU64(d[:8], spreadNibbles(uint32(x))|spreadNibbles(uint32(y))<<4)
		putU64(d[8:16], spreadNibbles(uint32(x>>32))|spreadNibbles(uint32(y>>32))<<4)
	}
}
