package bitpack

import (
	"encoding/binary"
	"fmt"
)

// The filter pass of special-group selection (paper §4.3) fused with the
// group map: one call from a packed compare to the group ids the
// aggregation walks. Run as three passes, the scan writes a byte mask
// (CmpLEPacked), reads it back to count the kept rows, unpacks each group-by
// column's dictionary ids into a byte vector, and folds and blends them
// (sel.CombineGroups), reading the mask a second time. CmpLEGroups runs the
// same compare and then one group loop, which spreads the id words
// straight into blended group bytes under the mask the compare has just
// written, counting the kept rows off its indicator bits. It is two loops
// and not one because one loop over all five streams, with the spread masks
// and the blend word, needs more registers than amd64 has; the spills
// measured slower than reading the L1-resident mask once more.
//
// It has one shape, the one TPC-H Q1 and the serving mix's Q1 run
// (GroupsKernel): a 12-bit compare and group ids hi·2 + lo from a 2-bit and
// a 1-bit id column, over one whole batch (GroupsRows lanes) from a
// word-aligned start. The engine runs every other shape, and every partial
// batch, as the three passes.

// GroupsRows is the window CmpLEGroups runs over: one scan batch (the
// engine pins it to colstore.BatchRows).
const GroupsRows = 4096

// GroupsKernel reports whether CmpLEGroups runs a compare at width cmp with
// group ids hi·card + lo from id columns of widths hi and lo: a 12-bit
// compare and a 2-bit and a 1-bit column whose cardinality fills its width.
func GroupsKernel(cmp, hi, lo, card uint8) bool {
	return cmp == 12 && hi == 2 && lo == 1 && card == 2
}

// CmpLEGroups writes the byte mask of value <= t for the GroupsRows lanes
// from start into mask (0xFF kept, 0x00 rejected), the group id hi·2 + lo of
// every lane into groups — special where the mask rejects the lane — and
// returns how many lanes the mask keeps. start is a multiple of 64 and the
// widths are the shape GroupsKernel names (CheckGroups). When every lane is
// kept the blend changes nothing, so the output serves a batch that selects
// by special group, by gather or compaction (which drop the rejected rows
// the special id marks) or not at all.
//
//bipie:kernel
func (v *Vector) CmpLEGroups(mask, groups *[GroupsRows]byte, start int, t uint64, hi, lo *Vector, special uint8) int {
	v.CheckGroups(start, hi, lo)
	v.CmpLEPacked(mask[:], start, t, false)
	return groupsBody(groups, mask, (*[GroupsRows * 2 / 64]uint64)(hi.wordsAt(start)),
		(*[GroupsRows / 64]uint64)(lo.wordsAt(start)), Broadcast8(special))
}

// CheckGroups validates a CmpLEGroups call, as CheckUnpack does an unpack:
// the batch in range of all three vectors, a word-aligned start, and the
// widths of GroupsKernel's shape.
func (v *Vector) CheckGroups(start int, hi, lo *Vector) {
	for _, c := range [3]*Vector{v, hi, lo} {
		c.CheckUnpack(64, start, GroupsRows)
	}
	if start%64 != 0 || !GroupsKernel(v.bits, hi.bits, lo.bits, 2) {
		panic(fmt.Sprintf("bitpack: CmpLEGroups at %d over widths %d/%d/%d", start, v.bits, hi.bits, lo.bits))
	}
}

// crumbBytes[b] holds the four 2-bit fields of byte b and bitBytes[b] the
// eight bits of b, each in a byte lane of its own: the spread steps of the
// 2- and 1-bit unpack bodies (spreadCrumbs, spreadBits) looked up, which
// leaves groupsBody's registers to its streams.
var crumbBytes, bitBytes = func() (c [256]uint32, b [256]uint64) {
	for i := range c {
		c[i], b[i] = uint32(spreadCrumbs(uint16(i))), spreadBits(uint8(i))
	}
	return c, b
}()

// groupsBody writes one batch of group ids hi·2 + lo into groups, eight
// lanes per store, blended with mask — a rejected lane gets special — and
// returns the kept lanes: the byte sum of each mask word's indicator bits,
// the compare's indicator word. A counter masked to each fixed-size array
// pins every access for prove with one register for all four streams.
//
//bipie:kernel
//bipie:nobce
func groupsBody(groups, mask *[GroupsRows]byte, hi *[GroupsRows * 2 / 64]uint64, lo *[GroupsRows / 64]uint64, special uint64) (kept int) {
	for k := 0; k < GroupsRows/8; k++ {
		j := k & (GroupsRows/8 - 1)
		h := hi[j>>2&(len(hi)-1)] >> (j & 3 * 16)
		l := lo[j>>3&(len(lo)-1)] >> (j & 7 * 8)
		g := (uint64(crumbBytes[uint8(h)])|uint64(crumbBytes[uint8(h>>8)])<<32)<<1 | bitBytes[uint8(l)]
		m := binary.LittleEndian.Uint64(mask[8*j:])
		binary.LittleEndian.PutUint64(groups[8*j:], g&m|special&^m)
		kept += int((m & lo8) * lo8 >> 56)
	}
	return kept
}
