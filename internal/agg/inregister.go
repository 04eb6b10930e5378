package agg

import (
	"encoding/binary"

	"bipie/internal/bitpack"
)

// In-Register aggregation (paper §5.3) keeps intermediate results entirely
// in registers: one "virtual array" register per group, whose lanes hold
// per-lane partial results for that group. For every vector of group ids,
// each group's register is updated with a compare-to-mask followed by a
// lane-wise add (Algorithm 2) — no memory traffic for accumulators inside
// the loop, no data-dependent branches, and cost linear in the number of
// groups. The method is limited to small group counts (the paper uses up to
// 32) and is most effective for narrow values, where more lanes fit per
// register.
//
// Our registers are uint64 SWAR words: 8 byte lanes per word instead of
// AVX2's 32, so each "virtual array" is one word (count, 1-byte sums) or a
// pair of words (wider sums). Lane counters are periodically flushed into
// 64-bit totals before they can wrap — the paper's narrow in-register
// counters (Table 3: 4-bit count counters, 16-bit sum counters) require the
// same flushing discipline.
//
// Unlike SortBased and MultiAgg, in-register aggregation carries no
// per-scan struct state at all: every accumulator is a fixed-size stack
// array local to one kernel call ([InRegisterMaxGroups]uint64), so there is
// nothing for the engine's exec-state pool to own or reset. Its "scratch
// type" is the register file itself — which is the point of the strategy.

// InRegisterMaxGroups is the largest group count the in-register strategy
// is generated for ("up to around 32 on today's hardware", paper §5.3).
const InRegisterMaxGroups = 32

// countFlushSteps is how many 8-row steps may accumulate into byte-lane
// count registers before a flush: each step adds at most 1 per lane and a
// byte lane wraps at 256.
const countFlushSteps = 255

// sum8FlushSteps bounds accumulation of 1-byte values into 16-bit lanes:
// each step adds at most 255 per lane and 255*256 < 65536.
const sum8FlushSteps = 256

// sum16FlushSteps bounds accumulation of 2-byte values into 32-bit lanes:
// each step adds at most 65535 per lane and 65535*65536 < 2^32.
const sum16FlushSteps = 65536

// InRegisterCount computes COUNT(*) per group. It materializes virtual
// arrays only for groups 0..numGroups-2 and derives the last group's count
// by subtracting from the total row count — the register-saving trick of
// §5.3 ("we can optimize away processing for the group N-1").
//
// The accumulator arrays must stay on the stack (bipiegc asserts the
// noescape facts below) and the word loop walks a moving gs slice so the
// loads carry no bounds checks; only the one-time reslices and the
// group-id-indexed counts stores remain checked.
//
//bipie:kernel
//bipie:nobce
//bipie:noescape accArr
//bipie:noescape bcastArr
//bipie:noescape totalsArr
func InRegisterCount(groups []uint8, numGroups int, counts []int64) {
	n := len(groups)
	if numGroups <= 0 {
		return
	}
	if numGroups == 1 {
		counts[0] += int64(n)
		return
	}
	m := numGroups - 1
	counts = counts[:numGroups]
	// Accumulators live in fixed-size stack arrays: InRegisterSupported
	// bounds numGroups by InRegisterMaxGroups, so the kernel never
	// heap-allocates.
	var accArr, bcastArr [InRegisterMaxGroups]uint64
	var totalsArr [InRegisterMaxGroups]int64
	acc, bcast, totals := accArr[:m], bcastArr[:m], totalsArr[:m]
	for g := range bcast {
		bcast[g] = bitpack.Broadcast8(uint8(g))
	}
	flush := func() {
		for g := range acc {
			// Lanes hold -count (masks add 0xFF = -1); negate, then sum.
			totals[g] += int64(bitpack.SumLanes8(bitpack.Sub8(0, acc[g])))
			acc[g] = 0
		}
	}
	steps := 0
	gs := groups
	for len(gs) >= bitpack.Lanes8 {
		v := binary.LittleEndian.Uint64(gs)
		gs = gs[bitpack.Lanes8:]
		for g := 0; g < m; g++ {
			acc[g] = bitpack.Add8(acc[g], bitpack.CmpEq8(v, bcast[g]))
		}
		if steps++; steps == countFlushSteps {
			flush()
			steps = 0
		}
	}
	flush()
	swarRows := int64(n - len(gs))
	var others int64
	for g := 0; g < m; g++ {
		counts[g] += totals[g]
		others += totals[g]
	}
	counts[m] += swarRows - others
	for _, g := range gs { // tail shorter than one word
		counts[g]++
	}
}

// InRegisterSum8 computes SUM per group of 1-byte values. Masked value
// bytes are widened into two words of 16-bit lanes and accumulated there
// (the paper's 16-bit counters for 1-byte sums, Table 3), flushing into
// 64-bit totals before a lane can wrap.
//
// Same BCE/escape shape as InRegisterCount: moving gs/vs slices for the
// word loads, pre-sliced sums, stack-resident register files.
//
//bipie:kernel
//bipie:nobce
//bipie:noescape accLoArr
//bipie:noescape accHiArr
//bipie:noescape bcastArr
func InRegisterSum8(groups []uint8, vals []uint8, numGroups int, sums []int64) {
	const loHalf = 0x00FF00FF00FF00FF
	sums = sums[:numGroups]
	var accLoArr, accHiArr, bcastArr [InRegisterMaxGroups]uint64
	accLo, accHi, bcast := accLoArr[:numGroups], accHiArr[:numGroups], bcastArr[:numGroups]
	for g := range bcast {
		bcast[g] = bitpack.Broadcast8(uint8(g))
	}
	flush := func() {
		for g := 0; g < numGroups; g++ {
			sums[g] += int64(bitpack.SumLanes16(accLo[g]) + bitpack.SumLanes16(accHi[g]))
			accLo[g], accHi[g] = 0, 0
		}
	}
	steps := 0
	gs, vs := groups, vals[:len(groups)]
	for len(gs) >= bitpack.Lanes8 && len(vs) >= bitpack.Lanes8 {
		gv := binary.LittleEndian.Uint64(gs)
		vv := binary.LittleEndian.Uint64(vs)
		gs, vs = gs[bitpack.Lanes8:], vs[bitpack.Lanes8:]
		for g := 0; g < numGroups; g++ {
			mv := vv & bitpack.CmpEq8(gv, bcast[g])
			// Flushing before any 16-bit lane can exceed 65535 makes plain
			// adds carry-free, i.e. identical to lane-wise SIMD adds.
			accLo[g] += mv & loHalf
			accHi[g] += mv >> 8 & loHalf
		}
		if steps++; steps == sum8FlushSteps {
			flush()
			steps = 0
		}
	}
	flush()
	for i, g := range gs {
		sums[g] += int64(vs[i])
	}
}

// InRegisterSum16 computes SUM per group of 2-byte values, accumulating in
// 32-bit lanes (two words of two lanes each per group).
//
//bipie:kernel
//bipie:nobce
//bipie:noescape accLoArr
//bipie:noescape accHiArr
//bipie:noescape bcastArr
func InRegisterSum16(groups []uint8, vals []uint16, numGroups int, sums []int64) {
	const loHalf = 0x0000FFFF0000FFFF
	sums = sums[:numGroups]
	var accLoArr, accHiArr, bcastArr [InRegisterMaxGroups]uint64
	accLo, accHi, bcast := accLoArr[:numGroups], accHiArr[:numGroups], bcastArr[:numGroups]
	for g := range bcast {
		bcast[g] = bitpack.Broadcast16(uint16(g))
	}
	flush := func() {
		for g := 0; g < numGroups; g++ {
			sums[g] += int64(bitpack.SumLanes32(accLo[g]) + bitpack.SumLanes32(accHi[g]))
			accLo[g], accHi[g] = 0, 0
		}
	}
	steps := 0
	gs, vs := groups, vals[:len(groups)]
	for len(gs) >= bitpack.Lanes16 && len(vs) >= bitpack.Lanes16 {
		// Widen 4 group ids to 16-bit lanes to compare against values'
		// lane geometry (the paper's kernels are generated per layout by
		// the template engine; this is the 2-byte instantiation).
		gv := uint64(gs[0]) | uint64(gs[1])<<16 | uint64(gs[2])<<32 | uint64(gs[3])<<48
		vv := bitpack.Load16x4(vs)
		gs, vs = gs[bitpack.Lanes16:], vs[bitpack.Lanes16:]
		for g := 0; g < numGroups; g++ {
			mv := vv & bitpack.CmpEq16(gv, bcast[g])
			accLo[g] += mv & loHalf
			accHi[g] += mv >> 16 & loHalf
		}
		if steps++; steps == sum16FlushSteps {
			flush()
			steps = 0
		}
	}
	flush()
	for i, g := range gs {
		sums[g] += int64(vs[i])
	}
}

// InRegisterSum32 computes SUM per group of 4-byte values, accumulating
// directly in 64-bit lanes (one word per lane pair per group); no flush is
// needed because 2^32-1 summed 2^31 times still fits in 64 bits.
//
//bipie:kernel
//bipie:nobce
//bipie:noescape accLoArr
//bipie:noescape accHiArr
//bipie:noescape bcastArr
func InRegisterSum32(groups []uint8, vals []uint32, numGroups int, sums []int64) {
	sums = sums[:numGroups]
	var accLoArr, accHiArr, bcastArr [InRegisterMaxGroups]uint64
	accLo, accHi, bcast := accLoArr[:numGroups], accHiArr[:numGroups], bcastArr[:numGroups]
	for g := range bcast {
		bcast[g] = bitpack.Broadcast32(uint32(g))
	}
	gs, vs := groups, vals[:len(groups)]
	for len(gs) >= bitpack.Lanes32 && len(vs) >= bitpack.Lanes32 {
		gv := uint64(gs[0]) | uint64(gs[1])<<32
		vv := bitpack.Load32x2(vs)
		gs, vs = gs[bitpack.Lanes32:], vs[bitpack.Lanes32:]
		for g := 0; g < numGroups; g++ {
			mv := vv & bitpack.CmpEq32(gv, bcast[g])
			accLo[g] += mv & 0xFFFFFFFF
			accHi[g] += mv >> 32
		}
	}
	for g := 0; g < numGroups; g++ {
		sums[g] += int64(accLo[g] + accHi[g])
	}
	for i, g := range gs {
		sums[g] += int64(vs[i])
	}
}

// InRegisterSupported reports whether the in-register strategy applies:
// group count within the generated range and values at most 4 bytes wide
// (8-byte inputs "must rely on other methods", paper §5.4; §5.3 generates
// count and 1/2/4-byte sum variants only).
func InRegisterSupported(numGroups, wordSize int) bool {
	return numGroups >= 1 && numGroups <= InRegisterMaxGroups && wordSize <= 4
}

// InRegisterOpsPer32Values returns the number of SWAR register operations
// our kernels execute per group for 32 input values, the analogue of the
// paper's Table 3 instruction counts (which are per 32 values in one AVX2
// register). wordSize 0 means COUNT(*). The absolute numbers differ from
// Table 3 — a uint64 holds 8 lanes, not 32 — but the ordering and growth
// with value width are the comparison the table makes.
func InRegisterOpsPer32Values(wordSize int) int {
	switch wordSize {
	case 0: // count: CmpEq8 + Add8 per 8 values
		return 2 * 32 / 8
	case 1: // cmp + and + 2 widen-shifts + 2 adds per 8 values
		return 6 * 32 / 8
	case 2: // widen ids + cmp + and + 2 shifts + 2 adds per 4 values
		return 7 * 32 / 4
	case 4: // widen ids + cmp + and + shift + 2 adds per 2 values
		return 6 * 32 / 2
	default:
		return 0
	}
}
