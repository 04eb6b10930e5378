package bitpack

// Key writes the cell key of rows [start, start+len(dst)) of one or two
// packed code columns — the multi-aggregate cell walk's per-row byte: a's
// code in the low a.Bits() bits and b's right above it, or a's code alone
// when b is nil. The two widths together must fit a byte. Two 4-bit
// columns (Q1's discount and tax) take a word-parallel body, sixteen keys a
// pair of packed words, in blocks of keyBlock rows; every other pair, and
// the ragged head and tail around those blocks, takes the windowed loop.
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
		body &^= keyBlock - 1
	}
	keyWindowed(dst[:head], a, b, start)
	aw, bw := a.wordsAt(start+head), b.wordsAt(start+head)
	for k := 0; k < body; k += keyBlock {
		keyBody44((*[keyBlock]uint8)(dst[head+k:]), (*[keyBlock / 16]uint64)(aw[k/16:]), (*[keyBlock / 16]uint64)(bw[k/16:]))
	}
	keyWindowed(dst[head+body:], a, b, start+head+body)
}

// keyBlock is the rows one keyBody44 call keys: sixteen words of each
// column. A scan batch is sixteen blocks.
const keyBlock = 256

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
// words, sixteen keys a pair of words: the low halves of a's and b's words
// side by side in one word, their nibbles zipped, then the high halves. An
// index loop over fixed-size arrays, as groupsBody is, so the loop keeps one
// counter and the masks in registers.
//
//bipie:kernel
//bipie:nobce
func keyBody44(d *[keyBlock]uint8, a, b *[keyBlock / 16]uint64) {
	for k := 0; k < len(a); k++ {
		j := k & (len(a) - 1)
		x, y, keys := a[j], b[j], d[16*j:]
		putU64(keys[:8], zipNibbles(x&0xFFFFFFFF|y<<32))
		putU64(keys[8:16], zipNibbles(x>>32|y&^0xFFFFFFFF))
	}
}

// zipNibbles interleaves the nibbles of z's two halves: nibble i of the
// low half goes to nibble 2i, nibble i of the high half to nibble 2i+1, so
// byte i is low nibble i below high nibble i. It is an outer perfect
// shuffle of sixteen nibbles, three delta swaps.
//
//bipie:inline
func zipNibbles(z uint64) uint64 {
	t := (z ^ z>>16) & 0x00000000FFFF0000
	z ^= t ^ t<<16
	t = (z ^ z>>8) & 0x0000FF000000FF00
	z ^= t ^ t<<8
	t = (z ^ z>>4) & 0x00F000F000F000F0
	return z ^ t ^ t<<4
}
