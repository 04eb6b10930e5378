package engine

import (
	"fmt"
	"strconv"

	"bipie/internal/bitpack"
	"bipie/internal/colstore"
	"bipie/internal/encoding"
	"bipie/internal/sel"
)

// groupMapper is BIPie's Group ID Mapper (paper §3): it turns the group-by
// columns of a segment into a single byte vector of dense integer group
// ids, replacing the hash-table lookup of a classical aggregation.
//
// Dictionary encoding supplies a perfect collision-free hash — the
// dictionary id *is* the group id — so mapping a dictionary column is
// nothing but bit unpacking. Integer columns group through the same idea
// using segment metadata instead of a dictionary: when max-min+1 fits the
// byte id space, id = value - min is an equally perfect hash (one of the
// §2.2 "mechanical extensions"). Multi-column grouping combines ids with a
// fused multiply-add, as the paper's Q1 does for returnflag × linestatus.
type groupMapper struct {
	cols      []groupCol
	numGroups int
}

// mapScratch is the mutable per-scan state of a group mapper: the
// second-column id vector for multi-column grouping and the decode buffer
// for non-bit-packed integer columns. The mapper itself is immutable plan
// state shared across concurrent scans; each exec state owns one scratch.
type mapScratch struct {
	ids    []uint8
	intBuf []int64
}

// newScratch sizes a mapScratch for this mapper's needs, so mapBatch never
// allocates: the id vector only exists for multi-column grouping, the
// decode buffer only when some integer column lacks the direct unpack path.
func (m *groupMapper) newScratch() mapScratch {
	var sc mapScratch
	if len(m.cols) > 1 {
		sc.ids = make([]uint8, colstore.BatchRows)
	}
	for c := range m.cols {
		if m.packedIDs(c) == nil {
			sc.intBuf = make([]int64, colstore.BatchRows)
			break
		}
	}
	return sc
}

// groupCol is one group-by column within a segment: exactly one of str or
// intc is set.
type groupCol struct {
	name string
	str  *encoding.DictColumn
	intc encoding.IntColumn
	base int64 // integer path: id = value - base
	card int
}

// newGroupMapper resolves the group-by columns within one segment. The
// combined group domain must fit the byte-wide id space (paper §2.2's
// at-most-256-groups simplification), with one id left free when a special
// group will be fused.
func newGroupMapper(seg *colstore.Segment, groupBy []string) (*groupMapper, error) {
	m := &groupMapper{numGroups: 1}
	for _, name := range groupBy {
		gc := groupCol{name: name}
		if str, err := seg.StrCol(name); err == nil {
			gc.str = str
			gc.card = str.Cardinality()
		} else {
			intc, ierr := seg.IntCol(name)
			if ierr != nil {
				return nil, fmt.Errorf("engine: group-by column %q not found", name)
			}
			domain := intc.Max() - intc.Min() + 1
			if intc.Len() == 0 {
				domain = 1
			}
			if domain > sel.MaxGroups {
				return nil, fmt.Errorf("engine: integer group-by column %q spans %d values, max %d", name, domain, sel.MaxGroups)
			}
			gc.intc = intc
			gc.base = intc.Min()
			gc.card = int(domain)
		}
		if gc.card == 0 {
			gc.card = 1 // empty segment: one nominal group
		}
		m.cols = append(m.cols, gc)
		m.numGroups *= gc.card
		if m.numGroups > sel.MaxGroups {
			return nil, fmt.Errorf("engine: group domain %d exceeds %d (columns %v)", m.numGroups, sel.MaxGroups, groupBy)
		}
	}
	return m, nil
}

// groups returns the segment's group-domain size from metadata: for
// dictionary columns the cardinality, for integer columns the value span —
// both upper bounds on the true group count (paper §6.3: "even though the
// query outputs four groups, based on metadata we calculate that six
// groups are possible").
func (m *groupMapper) groups() int { return m.numGroups }

// mapBatch fills dst[0:n] with the combined group id of rows
// [start, start+n), using the caller's scratch for intermediate vectors.
// With a non-nil selVec, rows it rejects get the special group id instead
// (paper §4.3), blended in the same pass that folds in the last column.
//
//bipie:kernel
func (m *groupMapper) mapBatch(sc *mapScratch, start, n int, dst []uint8, selVec sel.ByteVec, special uint8) {
	dst = dst[:n]
	if len(m.cols) == 0 {
		for i := range dst {
			dst[i] = 0
		}
	} else {
		m.colIDs(sc, 0, start, n, dst)
	}
	last := len(m.cols) - 1
	for c := 1; c <= last; c++ {
		m.colIDs(sc, c, start, n, sc.ids)
		blend := selVec
		if c < last {
			blend = nil
		}
		sel.CombineGroups(dst, sc.ids[:n], uint8(m.cols[c].card), blend, special)
	}
	if last < 1 && selVec != nil {
		sel.CombineGroups(dst[:len(selVec)], nil, 0, selVec, special)
	}
}

// colIDs fills dst[0:n] with the per-column ids of rows [start, start+n).
//
//bipie:kernel
func (m *groupMapper) colIDs(sc *mapScratch, c, start, n int, dst []uint8) {
	if ids := m.packedIDs(c); ids != nil {
		ids.UnpackUint8(dst[:n], start)
		return
	}
	// Integer columns that do not bit-pack their ids decode and subtract.
	gc := &m.cols[c]
	buf := sc.intBuf[:n]
	gc.intc.Decode(buf, start)
	base := gc.base
	for i, v := range buf {
		dst[i] = uint8(v - base)
	}
}

// packedIDs returns column c's ids as the packed vector colIDs unpacks —
// dictionary ids, or the frame-of-reference offsets of an integer column
// bit-packed in at most eight bits (its reference is its minimum, so the
// offset is the id) — and nil for a column that decodes instead.
func (m *groupMapper) packedIDs(c int) *bitpack.Vector {
	gc := &m.cols[c]
	if gc.str != nil {
		return gc.str.IDs()
	}
	if bp, ok := gc.intc.(*encoding.BitPackColumn); ok && bp.Width() <= 8 {
		return bp.Packed()
	}
	return nil
}

// keys decomposes a combined group id back into the group-by column
// values; integer group keys render as decimal strings.
func (m *groupMapper) keys(gid int) []string {
	if len(m.cols) == 0 {
		return nil
	}
	keys := make([]string, len(m.cols))
	for c := len(m.cols) - 1; c >= 0; c-- {
		gc := &m.cols[c]
		id := gid % gc.card
		gid /= gc.card
		if gc.str != nil {
			keys[c] = gc.str.Dict()[id]
		} else {
			keys[c] = strconv.FormatInt(gc.base+int64(id), 10)
		}
	}
	return keys
}
