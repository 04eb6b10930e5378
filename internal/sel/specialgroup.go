package sel

import (
	"encoding/binary"

	"bipie/internal/bitpack"
)

// Selection by Special Group Assignment (paper §4.3) fuses filtering into
// grouping: instead of removing rejected rows, every rejected row is
// assigned one extra, otherwise-unused group id. The aggregation strategy
// then processes all rows sequentially — keeping the predictable streaming
// access pattern that makes "GROUP BY a, b" faster than "WHERE b = 1 GROUP
// BY a" in the paper's motivating observation — and the special group's
// results are discarded at output time.

// MaxGroups is the largest group-id domain supported by the byte-wide group
// id map (paper §2.2 assumes at most 256 unique group-by values).
const MaxGroups = 256

// CombineGroups is the group mapper's one pass over the group id map,
// eight rows per 64-bit word. With ids it folds one more group-by column
// into the map, groups[i] = groups[i]*card + ids[i]: every combined id fits
// a byte, so no lane of the word-wide multiply-add carries into the next.
// With sel it then assigns the special group to the rejected rows, the
// branch-free blend out = (g AND sel) OR (special AND NOT sel) a SIMD
// implementation performs with the 0x00/0xFF mask. ids and sel are each nil
// or as long as groups.
//
// The moving slices pin every word access to a length test (which doubles
// as the nil test), so neither loop keeps a bounds check.
//
//bipie:kernel
//bipie:nobce
func CombineGroups(groups, ids []uint8, card uint8, sel ByteVec, special uint8) {
	c, sp := uint64(card), bitpack.Broadcast8(special)
	for ; len(groups) >= 8; groups = groups[8:] {
		x := binary.LittleEndian.Uint64(groups)
		if len(ids) >= 8 {
			x = x*c + binary.LittleEndian.Uint64(ids)
			ids = ids[8:]
		}
		if len(sel) >= 8 {
			m := binary.LittleEndian.Uint64(sel)
			x = x&m | sp&^m
			sel = sel[8:]
		}
		binary.LittleEndian.PutUint64(groups, x)
	}
	for i, g := range groups {
		if i < len(ids) {
			g = g*card + ids[i]
		}
		if i < len(sel) {
			g = g&sel[i] | special&^sel[i]
		}
		groups[i] = g
	}
}
