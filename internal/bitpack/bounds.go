package bitpack

// Packed-domain bounds: the least and greatest lane of a range, and the
// parity of every lane, read straight off the packed words with no lane
// ever stored. This is how a loaded column rebuilds the derived data its
// writer knew (zone maps, monotonicity) at the speed of its bytes.
//
// A kernel width's body (splitLanes) is widened a word at a time into
// lanes whose top bit is free: the dividing widths by splitting even from
// odd lanes (a w-bit field in a 2w-bit lane), the 3·2^k family by the
// chunks48/spread chain unpack uses (3→4, 6→8, 12→16 bits). Each pair of
// widened words is ordered lane by lane with the guard-bit compare of the
// packed compare kernels and a masked blend (lanesMinMax), the smaller
// folded into a running lane-wise minimum and the larger into a maximum;
// the lanes reduce once at the end. Fields of 16, 24 and 32 bits take a
// scalar min/max, which measured faster than their wide lanes. The head
// and tail around the body, and every width without a kernel, take the
// windowed extraction (scalarBounds).

// The low and the high bit of every 2- and 4-bit lane (lanes.go holds 8,
// 16 and 32).
const (
	lo2 uint64 = 0x5555555555555555
	hi2 uint64 = lo2 << 1
	lo4 uint64 = 0x1111111111111111
	hi4 uint64 = lo4 << 3
)

// Bounds returns the least and the greatest of lanes [start, start+n)
// (^0 and 0 when n is 0).
//
//bipie:kernel
func (v *Vector) Bounds(start, n int) (mn, mx uint64) {
	v.CheckUnpack(64, start, n)
	head, body := n, 0
	if hasKernel(v.bits) {
		head, body = splitLanes(v.bits, start, n)
	}
	mn, mx = scalarBounds(v, start, head)
	if body > 0 {
		src := v.wordsAt(start + head)
		bmn, bmx := boundsBody(src[:uint64(body)*uint64(v.bits)/64], v.bits)
		mn, mx = min(mn, bmn), max(mx, bmx)
	}
	tmn, tmx := scalarBounds(v, start+head+body, n-head-body)
	return min(mn, tmn), max(mx, tmx)
}

// scalarBounds is Bounds over lanes [start, start+n) by the two-word
// window: any width, any alignment. The second word's bits land above the
// width mask unless the lane straddles (shifting by one and then by 63-off
// clears them all at off 0), so the loop has no branch; Pack's pad word
// keeps words[w+1] in range.
//
//bipie:kernel
func scalarBounds(v *Vector, start, n int) (mn, mx uint64) {
	width, mask, words := uint64(v.bits), v.Mask(), v.words
	bitPos := uint64(start) * width
	mn = ^uint64(0)
	for range n {
		w, off := bitPos>>6, bitPos&63
		val := (words[w]>>off | words[w+1]<<1<<(63-off)) & mask
		mn, mx = min(mn, val), max(mx, val)
		bitPos += width
	}
	return mn, mx
}

// lanesMinMax returns the lane-wise minimum and maximum of x and y, whose
// lanes' top bits (h, bit top of each lane) are clear. (x|h) - y keeps a
// lane's top bit exactly when x >= y, and no lane borrows from its
// neighbour because each difference is positive; the indicator less
// itself shifted to the lane's low bit masks the lanes where x is the
// larger, and a blend through x^y swaps them in. A caller that keeps only
// one result pays for that half alone.
//
//bipie:inline
func lanesMinMax(x, y, h uint64, top uint) (lo, hi uint64) {
	ge := (x | h - y) & h
	d := (x ^ y) & (ge - ge>>top)
	return x ^ d, y ^ d
}

// reduceLanes returns the least lane of mn and the greatest of mx, their
// lanes lane bits wide.
func reduceLanes(mn, mx uint64, lane uint) (lo, hi uint64) {
	mask := uint64(1)<<lane - 1 // all ones at lane 64
	lo = ^uint64(0)
	for s := uint(0); s < 64; s += lane {
		lo, hi = min(lo, mn>>s&mask), max(hi, mx>>s&mask)
	}
	return lo, hi
}

// boundsBody returns the bounds of a kernel body, src being exactly its
// packed words (whole periods from a word-aligned lane). Each step orders
// two widened words lane by lane — the even lanes against the odd, chunk
// 0 against 1 and 2 against 3 — and folds only the smaller into the
// running lane-wise minimum and only the larger into the maximum. The
// running bounds open at every lane's largest value below its top bit
// (^h) and at 0, and ride as lanesMinMax's second operand, so nothing
// computed from them alone is scheduled early and held across the step.
// A three-word period is cut as chunks48 cuts it, but in two halves: the
// branch between them keeps the compiler from cutting all four chunks
// before it folds any, which ran out of registers, and the loop leaves
// before a reslice would empty src, so the reslice needs no pointer guard.
// With those, only the 3- and 6-bit loops, whose spread chains hold the
// most constants, keep a value that goes through the stack.
//
//bipie:kernel
//bipie:nobce
func boundsBody(src []uint64, width uint8) (mn, mx uint64) {
	switch width {
	case 1:
		mn = ^hi2
		for _, x := range src {
			lo, hi := lanesMinMax(x&lo2, x>>1&lo2, hi2, 1)
			mn, _ = lanesMinMax(lo, mn, hi2, 1)
			_, mx = lanesMinMax(hi, mx, hi2, 1)
		}
		return reduceLanes(mn, mx, 2)
	case 2:
		mn = ^hi4
		for _, x := range src {
			lo, hi := lanesMinMax(x&(lo4*3), x>>2&(lo4*3), hi4, 3)
			mn, _ = lanesMinMax(lo, mn, hi4, 3)
			_, mx = lanesMinMax(hi, mx, hi4, 3)
		}
		return reduceLanes(mn, mx, 4)
	case 4:
		mn = ^hi8
		for _, x := range src {
			lo, hi := lanesMinMax(x&(lo8*0xF), x>>4&(lo8*0xF), hi8, 7)
			mn, _ = lanesMinMax(lo, mn, hi8, 7)
			_, mx = lanesMinMax(hi, mx, hi8, 7)
		}
		return reduceLanes(mn, mx, 8)
	case 8:
		mn = ^hi16
		for _, x := range src {
			lo, hi := lanesMinMax(x&(lo16*0xFF), x>>8&(lo16*0xFF), hi16, 15)
			mn, _ = lanesMinMax(lo, mn, hi16, 15)
			_, mx = lanesMinMax(hi, mx, hi16, 15)
		}
		return reduceLanes(mn, mx, 16)
	case 16:
		mn = ^uint64(0)
		for _, x := range src {
			f0, f1, f2, f3 := x&0xFFFF, x>>16&0xFFFF, x>>32&0xFFFF, x>>48
			mn = min(mn, min(f0, f1), min(f2, f3))
			mx = max(mx, max(f0, f1), max(f2, f3))
		}
		return mn, mx
	case 32:
		mn = ^uint64(0)
		for _, x := range src {
			f0, f1 := x&0xFFFFFFFF, x>>32
			mn, mx = min(mn, f0, f1), max(mx, f0, f1)
		}
		return mn, mx
	case 3:
		mn = ^hi4
		for len(src) >= 2 {
			lo, hi := lanesMinMax(spread4(src[0]), spread4(src[0]>>48|src[1]<<16), hi4, 3)
			mn, _ = lanesMinMax(lo, mn, hi4, 3)
			_, mx = lanesMinMax(hi, mx, hi4, 3)
			if len(src) < 3 {
				break
			}
			lo, hi = lanesMinMax(spread4(src[1]>>32|src[2]<<32), spread4(src[2]>>16), hi4, 3)
			mn, _ = lanesMinMax(lo, mn, hi4, 3)
			_, mx = lanesMinMax(hi, mx, hi4, 3)
			if len(src) < 4 {
				break
			}
			src = src[3:]
		}
		return reduceLanes(mn, mx, 4)
	case 6:
		mn = ^hi8
		for len(src) >= 2 {
			lo, hi := lanesMinMax(spread8(src[0]), spread8(src[0]>>48|src[1]<<16), hi8, 7)
			mn, _ = lanesMinMax(lo, mn, hi8, 7)
			_, mx = lanesMinMax(hi, mx, hi8, 7)
			if len(src) < 3 {
				break
			}
			lo, hi = lanesMinMax(spread8(src[1]>>32|src[2]<<32), spread8(src[2]>>16), hi8, 7)
			mn, _ = lanesMinMax(lo, mn, hi8, 7)
			_, mx = lanesMinMax(hi, mx, hi8, 7)
			if len(src) < 4 {
				break
			}
			src = src[3:]
		}
		return reduceLanes(mn, mx, 8)
	case 12:
		mn = ^hi16
		for len(src) >= 2 {
			lo, hi := lanesMinMax(spread16(src[0]), spread16(src[0]>>48|src[1]<<16), hi16, 15)
			mn, _ = lanesMinMax(lo, mn, hi16, 15)
			_, mx = lanesMinMax(hi, mx, hi16, 15)
			if len(src) < 3 {
				break
			}
			lo, hi = lanesMinMax(spread16(src[1]>>32|src[2]<<32), spread16(src[2]>>16), hi16, 15)
			mn, _ = lanesMinMax(lo, mn, hi16, 15)
			_, mx = lanesMinMax(hi, mx, hi16, 15)
			if len(src) < 4 {
				break
			}
			src = src[3:]
		}
		return reduceLanes(mn, mx, 16)
	case 24:
		mn = ^uint64(0)
		for len(src) >= 2 {
			c0, c1 := src[0], src[0]>>48|src[1]<<16
			f0, f1, f2, f3 := c0&0xFFFFFF, c0>>24&0xFFFFFF, c1&0xFFFFFF, c1>>24&0xFFFFFF
			mn = min(mn, min(f0, f1), min(f2, f3))
			mx = max(mx, max(f0, f1), max(f2, f3))
			if len(src) < 3 {
				break
			}
			c2, c3 := src[1]>>32|src[2]<<32, src[2]>>16
			f0, f1, f2, f3 = c2&0xFFFFFF, c2>>24&0xFFFFFF, c3&0xFFFFFF, c3>>24&0xFFFFFF
			mn = min(mn, min(f0, f1), min(f2, f3))
			mx = max(mx, max(f0, f1), max(f2, f3))
			if len(src) < 4 {
				break
			}
			src = src[3:]
		}
		return mn, mx
	}
	return ^uint64(0), 0
}

// AllEven reports whether every lane is even, and whether every lane is
// zero, in one pass over the words a period at a time: each word is ORed
// whole and under the mask of its lanes' low bits, the same for the same
// word of every period. Bits past the last lane are masked off, so a pad
// word or stray bits there change nothing.
//
//bipie:kernel
//bipie:noescape low
func (v *Vector) AllEven() (even, zero bool) {
	width := uint64(v.bits)
	p := periodLanes(v.bits)
	var low [64]uint64 // the low bits of the lanes of each word of a period
	for i := range uint64(p) {
		pos := i * width
		low[pos>>6&63] |= 1 << (pos & 63)
	}
	period := p * int(width) / 64
	nbits := uint64(v.n) * width
	words := v.words[:nbits>>6]
	var odd, any uint64
	for len(words) >= period {
		for j, x := range words[:period] {
			odd, any = odd|x&low[j&63], any|x
		}
		words = words[period:]
	}
	for j, x := range words {
		odd, any = odd|x&low[j&63], any|x
	}
	if r := nbits & 63; r != 0 {
		x := v.words[nbits>>6] & (1<<r - 1)
		odd, any = odd|x&low[len(words)&63], any|x
	}
	return odd == 0, any == 0
}
