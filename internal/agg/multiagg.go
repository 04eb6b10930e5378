package agg

import (
	"fmt"

	"bipie/internal/bitpack"
)

// Multi-Aggregate SUM Aggregation (paper §5.4): the inputs of several sums
// for the same row share one accumulator row per group, updated in a single
// walk over the group ids — data-level parallelism horizontally (across
// aggregates) instead of vertically (across rows). COUNT rides along: the
// row count is one more field of the row, so a plan on this strategy runs no
// separate counting pass.
//
// An accumulator row is up to maxRowWords 64-bit words. Word 0 is a
// carrier: its top countBits hold the row count, and below it sit bit
// fields for 1- and 2-byte inputs, each fieldSpare bits wider than its
// lane. Between two flushes at most maxRowsBetweenFlushes = 2^16-1 rows
// arrive, each adding at most 2^lane-1 to a field, so a field's running sum
// stays below 2^(lane+16) and never carries into its neighbour; the count
// itself stays below 2^16. Narrow fields that outgrow word 0 open further
// carrier words (two fields each). Carrier words are the only thing
// materialized: a typed pass builds them per tile from the narrow columns,
// two at a time. Every 4- or 8-byte input owns a whole word and is read
// straight from its unpacked vector by the accumulate loop; 8-byte inputs
// sum modulo 2^64, which is int64's wrapping sum.
//
// The strategy is split along the engine's plan/exec line: MultiLayout is
// the immutable field assignment, computed once per (query × segment) from
// metadata and shared by every concurrent execution; MultiAgg is the
// mutable accumulator state, one per scan, built from a layout with
// NewState and recycled with Reset.

const (
	// maxRowWords bounds the accumulator row: the carrier plus four more
	// words, which the accumulate loop is instantiated for.
	maxRowWords = 5
	// countBits is the width of the row-count field at the top of word 0.
	countBits  = 16
	countShift = 64 - countBits
	// fieldSpare is how much wider than its lane a narrow field is.
	fieldSpare = 16
	// maxRowsBetweenFlushes keeps every field inside its bits: 2^16-1 rows
	// of lane maxima sum below 2^(lane+fieldSpare), and count them below
	// 2^countBits (paper §5.4's 65536-row bound).
	maxRowsBetweenFlushes = 1<<fieldSpare - 1
	// tileRows bounds the carrier scratch so it stays cache-resident.
	tileRows = 2048
)

// maSlot places one aggregate input in the accumulator row: a bit field of
// a carrier word (1- and 2-byte inputs), or a whole word (bits = 64).
type maSlot struct {
	word  int
	shift uint
	bits  uint
}

// maCarrier names the (at most two) narrow inputs a carrier word is built
// from: a's field starts at bit 0, b's right above it, at the bit mulB has
// set. A word with one field lists it twice with mulB = 1, which ORs to
// itself.
type maCarrier struct {
	word   int
	a, b   int // column indices
	wa, wb int // their word sizes, 1 or 2
	mulB   uint64
	inc    uint64 // word 0 counts the row: 1<<countShift, else 0
}

// MultiLayout is the immutable accumulator-row assignment of a
// multi-aggregate plan: which word, and which bits of it, each aggregate
// column occupies. It holds no accumulators and is safe to share across
// concurrent scans.
type MultiLayout struct {
	numGroups int
	skip      int // special group whose results are discarded, or -1
	slots     []maSlot
	carriers  []maCarrier // one per carrier word that has fields
	ncarrier  int         // carrier words, word 0 included
	wide      []int       // columns owning words ncarrier.., in word order
}

// NewMultiLayout builds the row layout for aggregate columns of the given
// unpacked word sizes (1, 2, 4, or 8 bytes). It returns an error when the
// row would need more than maxRowWords words, in which case the caller must
// plan another strategy. This is the metadata-only half of the strategy:
// validating a layout allocates no accumulator state.
//
//bipie:allow hotalloc — plan-time constructor: runs once per (query, segment), never in a scan loop
func NewMultiLayout(numGroups, skipGroup int, wordSizes []int) (*MultiLayout, error) {
	l := &MultiLayout{numGroups: numGroups, skip: skipGroup, slots: make([]maSlot, len(wordSizes)), ncarrier: 1}
	// Narrow fields fill carrier words from bit 0 up, 1-byte inputs first:
	// word 0 has 48 bits under the count — two byte fields or one 2-byte
	// field — and any two fields fit a later word, so this order wastes no
	// word.
	used, limit := uint(0), uint(countShift)
	for _, size := range [2]int{1, 2} {
		for c, ws := range wordSizes {
			if ws != size {
				continue
			}
			bits := uint(8*ws + fieldSpare)
			if used+bits > limit {
				l.ncarrier++
				used, limit = 0, 64
			}
			w := l.ncarrier - 1
			l.slots[c] = maSlot{word: w, shift: used, bits: bits}
			if used > 0 {
				cw := &l.carriers[len(l.carriers)-1]
				cw.b, cw.wb, cw.mulB = c, ws, 1<<used
			} else {
				cw := maCarrier{word: w, a: c, b: c, wa: ws, wb: ws, mulB: 1}
				if w == 0 {
					cw.inc = 1 << countShift
				}
				l.carriers = append(l.carriers, cw)
			}
			used += bits
		}
	}
	for c, ws := range wordSizes {
		if ws >= 4 {
			l.slots[c] = maSlot{word: l.ncarrier + len(l.wide), bits: 64}
			l.wide = append(l.wide, c)
		}
	}
	if l.RowWords() > maxRowWords {
		return nil, fmt.Errorf("agg: multi-aggregate row overflow: %v needs %d words, the row has %d", wordSizes, l.RowWords(), maxRowWords)
	}
	return l, nil
}

// RowWords reports how many 64-bit words an accumulator row of the layout
// uses; the ablation benches use it to show efficiency versus row density.
func (l *MultiLayout) RowWords() int { return l.ncarrier + len(l.wide) }

// NewState allocates the mutable accumulator state for one scan over this
// layout. States from the same layout are independent: concurrent scans
// sharing a plan each hold their own.
//
//bipie:allow hotalloc — constructor: pooled by the engine, allocations here are the setup the hot loops reuse
func (l *MultiLayout) NewState() *MultiAgg {
	m := &MultiAgg{
		layout:  l,
		acc:     new(accRows),
		counts:  make([]int64, l.numGroups),
		sums:    make([][]int64, len(l.slots)),
		carrier: make([][]uint64, l.ncarrier),
	}
	for c := range m.sums {
		m.sums[c] = make([]int64, l.numGroups)
	}
	for w := range m.carrier {
		m.carrier[w] = make([]uint64, tileRows)
	}
	if len(l.carriers) == 0 {
		// Word 0 has no fields: every row adds the same word, written once.
		for i := range m.carrier[0] {
			m.carrier[0][i] = 1 << countShift
		}
	}
	return m
}

// accRows is the accumulator block: one row per byte-wide group id, so the
// id indexes it without a bounds check.
type accRows [256][maxRowWords]uint64

// MultiAgg is the per-scan execution state of a multi-aggregate plan:
// accumulator-row partial sums per group, the widened 64-bit totals, and
// one tile of carrier words. One MultiAgg belongs to exactly one scan at a
// time.
type MultiAgg struct {
	layout *MultiLayout
	acc    *accRows
	rowsIn int       // rows accumulated since the last flush
	counts []int64   // counts[group], flushed totals
	sums   [][]int64 // sums[col][group], flushed totals
	// carrier[w] holds one tile of carrier word w, reused across tiles.
	carrier [][]uint64
}

// NewMultiAgg builds a layout and its state in one step — the one-shot
// constructor kept for benches and tests; the engine plans the layout once
// and pools states.
func NewMultiAgg(numGroups, skipGroup int, wordSizes []int) (*MultiAgg, error) {
	l, err := NewMultiLayout(numGroups, skipGroup, wordSizes)
	if err != nil {
		return nil, err
	}
	return l.NewState(), nil
}

// Reset clears the accumulators for reuse by a new scan. The layout is
// untouched; the group domain and field assignment are plan state.
func (m *MultiAgg) Reset() {
	clear(m.acc[:m.layout.numGroups])
	clear(m.counts)
	for _, s := range m.sums {
		clear(s)
	}
	m.rowsIn = 0
}

// RowWords reports the layout's accumulator-row density (see
// MultiLayout.RowWords).
func (m *MultiAgg) RowWords() int { return m.layout.RowWords() }

// Accumulate adds a batch: groups[i] is the group id of row i and cols[c]
// holds the values of aggregate c, batch-aligned with groups. Per tile it
// builds the carrier words, then walks the group ids once, adding the whole
// row — count, narrow fields and in-place wide values — to the group's
// accumulator row.
//
//bipie:kernel
func (m *MultiAgg) Accumulate(groups []uint8, cols []*bitpack.Unpacked) {
	l := m.layout
	for off := 0; off < len(groups); {
		n := min(len(groups)-off, tileRows, maxRowsBetweenFlushes-m.rowsIn)
		for i := range l.carriers {
			cw := &l.carriers[i]
			buildCarrier(m.carrier[cw.word][:n], cw, cols[cw.a], cols[cw.b], off)
		}
		var rest [maxRowWords - 1]wideCol
		k := 0
		for w := 1; w < l.ncarrier; w++ {
			rest[k].u64 = m.carrier[w][:n]
			k++
		}
		for _, c := range l.wide {
			if col := cols[c]; col.WordSize == 4 {
				rest[k].u32 = col.U32[off : off+n]
			} else {
				rest[k].u64 = col.U64[off : off+n]
			}
			k++
		}
		addRows1(m.acc, groups[off:off+n], m.carrier[0][:n], rest[:k])
		off += n
		if m.rowsIn += n; m.rowsIn == maxRowsBetweenFlushes {
			m.Flush()
		}
	}
}

// narrowWord is the element type of a column that lives in a carrier field.
type narrowWord interface{ uint8 | uint16 }

// buildCarrier fills one carrier word of a tile from its one or two narrow
// columns; the layout orders 1-byte fields first, so b is never the narrower.
func buildCarrier(dst []uint64, cw *maCarrier, a, b *bitpack.Unpacked, off int) {
	switch {
	case cw.wb == 1:
		packFields(dst, a.U8[off:], b.U8[off:], cw.mulB, cw.inc)
	case cw.wa == 1:
		packFields(dst, a.U8[off:], b.U16[off:], cw.mulB, cw.inc)
	default:
		packFields(dst, a.U16[off:], b.U16[off:], cw.mulB, cw.inc)
	}
}

// packFields writes a tile of one carrier word: a in the low field, b moved
// to the field above it, plus word 0's per-row count increment. The move is
// a multiply by the field's low bit, one micro-op where a shift by a count
// that is not a constant takes three.
//
//bipie:kernel
//bipie:nobce
func packFields[A, B narrowWord](dst []uint64, a []A, b []B, mulB, inc uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = uint64(a[i]) | uint64(b[i])*mulB | inc
	}
}

// wideWord is the element type of a column that owns an accumulator word.
type wideWord interface{ uint32 | uint64 }

// wideCol is one word of the row after word 0, as the accumulate loop reads
// it: a 4-byte column, or an 8-byte one — which a further carrier word is.
type wideCol struct {
	u32 []uint32
	u64 []uint64
}

// addRows1..4 peel the row's words off one at a time, so the accumulate
// loop is instantiated per word count and per 4-/8-byte choice of each word
// after the carrier: 1+2+4+8+16 = 31 loops, not one per combination of all
// four input sizes.
func addRows1(acc *accRows, groups []uint8, c []uint64, rest []wideCol) {
	switch {
	case len(rest) == 0:
		accumulate1(acc, groups, c)
	case rest[0].u32 != nil:
		addRows2(acc, groups, c, rest[0].u32, rest[1:])
	default:
		addRows2(acc, groups, c, rest[0].u64, rest[1:])
	}
}

func addRows2[A wideWord](acc *accRows, groups []uint8, c []uint64, a []A, rest []wideCol) {
	switch {
	case len(rest) == 0:
		accumulate2(acc, groups, c, a)
	case rest[0].u32 != nil:
		addRows3(acc, groups, c, a, rest[0].u32, rest[1:])
	default:
		addRows3(acc, groups, c, a, rest[0].u64, rest[1:])
	}
}

func addRows3[A, B wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B, rest []wideCol) {
	switch {
	case len(rest) == 0:
		accumulate3(acc, groups, c, a, b)
	case rest[0].u32 != nil:
		addRows4(acc, groups, c, a, b, rest[0].u32, rest[1:])
	default:
		addRows4(acc, groups, c, a, b, rest[0].u64, rest[1:])
	}
}

func addRows4[A, B, C wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B, d []C, rest []wideCol) {
	switch {
	case len(rest) == 0:
		accumulate4(acc, groups, c, a, b, d)
	case rest[0].u32 != nil:
		accumulate5(acc, groups, c, a, b, d, rest[0].u32)
	default:
		accumulate5(acc, groups, c, a, b, d, rest[0].u64)
	}
}

// accumulate1..5 are the one walk over the group ids: row i's words are
// added to its group's accumulator row, one load-add-store per word. The
// group id is a byte and the block has 256 rows, so nothing in the loop is
// bounds-checked. Consecutive rows of one group queue behind each other's
// stores as they do in the scalar row loops, but a row's words are separate
// chains that overlap; a second block for alternate rows measured no gain
// on Q1's shape.

//bipie:kernel
//bipie:nobce
func accumulate1(acc *accRows, groups []uint8, c []uint64) {
	c = c[:len(groups)]
	for i, g := range groups {
		acc[g][0] += c[i]
	}
}

//bipie:kernel
//bipie:nobce
func accumulate2[A wideWord](acc *accRows, groups []uint8, c []uint64, a []A) {
	c, a = c[:len(groups)], a[:len(groups)]
	for i, g := range groups {
		row := &acc[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
	}
}

//bipie:kernel
//bipie:nobce
func accumulate3[A, B wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B) {
	c, a, b = c[:len(groups)], a[:len(groups)], b[:len(groups)]
	for i, g := range groups {
		row := &acc[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
		row[2] += uint64(b[i])
	}
}

//bipie:kernel
//bipie:nobce
func accumulate4[A, B, C wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B, d []C) {
	c, a, b, d = c[:len(groups)], a[:len(groups)], b[:len(groups)], d[:len(groups)]
	for i, g := range groups {
		row := &acc[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
		row[2] += uint64(b[i])
		row[3] += uint64(d[i])
	}
}

//bipie:kernel
//bipie:nobce
func accumulate5[A, B, C, D wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B, d []C, e []D) {
	c, a, b, d, e = c[:len(groups)], a[:len(groups)], b[:len(groups)], d[:len(groups)], e[:len(groups)]
	for i, g := range groups {
		row := &acc[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
		row[2] += uint64(b[i])
		row[3] += uint64(d[i])
		row[4] += uint64(e[i])
	}
}

// Flush folds the accumulator rows into the 64-bit totals and clears them
// (the widening step of §5.4): the count and every narrow field are cut out
// of their carrier word, a wide slot is its word.
//
//bipie:kernel
func (m *MultiAgg) Flush() {
	for g := 0; g < m.layout.numGroups; g++ {
		row := &m.acc[g]
		m.counts[g] += int64(row[0] >> countShift)
		for c, s := range m.layout.slots {
			m.sums[c][g] += int64(row[s.word] >> s.shift & (1<<s.bits - 1))
		}
		*row = [maxRowWords]uint64{}
	}
	m.rowsIn = 0
}

// AddSums flushes and folds the per-column, per-group sums into dst
// (dst[col][group]), omitting the special group.
func (m *MultiAgg) AddSums(dst [][]int64) {
	m.Flush()
	for c := range m.sums {
		for g := 0; g < m.layout.numGroups; g++ {
			if g == m.layout.skip {
				continue
			}
			dst[c][g] += m.sums[c][g]
			m.sums[c][g] = 0
		}
	}
}

// AddCounts flushes and folds the per-group row counts into dst, omitting
// the special group.
func (m *MultiAgg) AddCounts(dst []int64) {
	m.Flush()
	for g := 0; g < m.layout.numGroups; g++ {
		if g == m.layout.skip {
			continue
		}
		dst[g] += m.counts[g]
		m.counts[g] = 0
	}
}
