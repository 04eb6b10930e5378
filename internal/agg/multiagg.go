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
// A layout runs one of two walks. The read walk reads every word of the row
// from a vector: word 0 is a carrier holding the row count and the 1- and
// 2-byte inputs in bit fields (countBits, fieldSpare), further carrier words
// hold narrow inputs that outgrow it, and every 4- or 8-byte input owns a
// word, read straight from its unpacked vector; 8-byte inputs sum modulo
// 2^64, which is int64's wrapping sum. Only the carrier words are
// materialized, a tile at a time, by a typed pass over the narrow columns.
//
// The cell walk computes products instead of reading them (NewCellLayout).
// A product's factors are small codes — Q1's discount and tax take 11 and 9
// values — so the walk keys each row by (group, factor codes), a cell, and
// adds only its count, one byte column and the products' one base to the
// cell's two words. Every row of a cell has the same factors, so the fold
// multiplies once per cell what a per-row walk multiplies once per row:
// Σ(x + a)·(y + c) = (Σx + a·count)·(y + c), exact modulo 2^64. A column
// that sums a factor is count × code, read off the cell too.
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
	// tileRows bounds the read walk's carrier scratch so it stays
	// cache-resident.
	tileRows = 2048

	// maxCells bounds the cell block: 2048 cells of two words are 32 KiB,
	// which stays in L1.
	maxCells = 2048
	// cellCountShift places a cell's row count in the top 24 bits of its
	// first word, above the byte column's field; maxRowsBetweenFolds keeps
	// both inside their bits — 2^24-1 byte maxima sum below 2^32 — so a
	// scan unit of up to 2^24-1 rows folds its cells once.
	cellCountShift      = 40
	maxRowsBetweenFolds = 1<<(64-cellCountShift) - 1
	cellFieldMask       = 1<<cellCountShift - 1
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
	a, b   int // inputs of Accumulate's cols
	wa, wb int // their word sizes, 1 or 2
	mulB   uint64
	inc    uint64 // word 0 counts the row: 1<<countShift, else 0
}

// MultiLayout is the immutable accumulator-row assignment of a
// multi-aggregate plan: which word, and which bits of it, each aggregate
// column occupies — or, for a cell walk, the key and the fold. It holds no
// accumulators and is safe to share across concurrent scans.
type MultiLayout struct {
	numGroups int
	skip      int // special group whose results are discarded, or -1
	slots     []maSlot
	carriers  []maCarrier // one per carrier word that has fields
	ncarrier  int         // carrier words, word 0 included
	wide      []int       // columns read into words ncarrier.., in word order
	cells     *cellLayout // the cell walk; nil for the read walk
	flushRows int         // rows between two flushes: maxRowsBetweenFlushes or, for cells, maxRowsBetweenFolds
}

// Product is an aggregate column the cell walk computes instead of reading:
// (±x + AddX)·(±y + AddY) modulo 2^64, the value of a multiplication node of
// the engine's sum-expression program. y is the code of key factor Y; x is
// input X, the walk's 4-byte base vector, or, with X < 0, the previous
// product's value. Inputs index Accumulate's cols, which may run past the
// aggregate columns to vectors no column sums; column Col's own entry is not
// read.
type Product struct {
	Col        int
	X, Y       int
	NegX, NegY bool
	AddX, AddY int64
}

// Factor is one code of a cell walk's key, Bits wide, above the factors
// before it. Col is the aggregate column that sums the code, or -1.
type Factor struct {
	Bits uint
	Col  int
}

// CellKey is a cell walk's key: input Input holds one key byte a row, the
// Factors' codes packed into it from bit 0 up.
type CellKey struct {
	Input   int
	Factors []Factor
}

// cellLayout is how a cell walk adds a row and folds a cell: word 0 of a
// cell sums the count and narrow, word 1 the base, the rest is cellSums.
type cellLayout struct {
	bits   uint // key bits: a group owns 1<<bits cells
	key    int  // the input holding the key
	narrow int  // the input word 0's field sums: the byte column, or the key when there is none
	base   int  // the input word 1 sums
	sums   []cellSum
}

// cellSum is a column the fold computes once per cell as
// sign·(b + ax·count)·(code + ay), modulo 2^64: b is the cell's base total
// (base all ones), the previous one's value before its sign (prev all
// ones: a chain), or zero (both 0). A product (±x + a)·(±y + c) is
// ±(x ± a)·(y ± c), so its signs move out onto sign; a column that sums a
// factor's code is (0 + count)·code, and the base's own column Σx·(0 + 1).
type cellSum struct {
	col    int
	shift  uint
	mask   uint64 // the factor's code is key>>shift & mask
	base   uint64
	ax, ay uint64
	sign   uint64
	prev   uint64
}

// NewMultiLayout builds the read-walk layout for aggregate columns of the
// given unpacked word sizes (1, 2, 4, or 8 bytes). It returns an error when
// the row would need more than maxRowWords words, in which case the caller
// must plan another strategy. This is the metadata-only half of the
// strategy: validating a layout allocates no accumulator state.
//
//bipie:allow hotalloc — plan-time constructor: runs once per (query, segment), never in a scan loop
func NewMultiLayout(numGroups, skipGroup int, wordSizes []int) (*MultiLayout, error) {
	l := &MultiLayout{numGroups: numGroups, skip: skipGroup, slots: make([]maSlot, len(wordSizes)), ncarrier: 1, flushRows: maxRowsBetweenFlushes}
	// One lane order for the whole row. Narrow fields fill carrier words
	// from bit 0 up, 1-byte inputs first: word 0 has 48 bits under the count
	// — two byte fields or one 2-byte field — and any two fields fit a later
	// word, so this order wastes no word. Then every column read whole owns
	// a word, 8-byte ones first, so the walk has one loop per count of each
	// (addRows).
	used, limit := uint(0), uint(countShift)
	for _, size := range [4]int{1, 2, 8, 4} {
		for c, ws := range wordSizes {
			switch {
			case ws != size:
				continue
			case ws >= 4:
				l.slots[c] = maSlot{word: l.ncarrier + len(l.wide), bits: 64}
				l.wide = append(l.wide, c)
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
	if l.RowWords() > maxRowWords {
		return nil, fmt.Errorf("agg: multi-aggregate row overflow: %v needs %d words, the row has %d", wordSizes, l.RowWords(), maxRowWords)
	}
	return l, nil
}

// NewCellLayout builds a cell-walk layout (see the package comment above):
// the products, and columns that sum a key factor's code, come out of the
// fold; the walk reads the key, the products' one 4-byte base and at most
// one byte column, and no other column may need more. The key must fit a
// byte and the groups' cells maxCells. Anything else is an error, and the
// caller plans the read walk over materialized products instead.
//
//bipie:allow hotalloc — plan-time constructor: runs once per (query, segment), never in a scan loop
func NewCellLayout(numGroups, skipGroup int, wordSizes []int, key CellKey, products []Product) (*MultiLayout, error) {
	cols := len(wordSizes)
	c := &cellLayout{key: key.Input, narrow: key.Input, base: -1}
	fail := func(why string) (*MultiLayout, error) {
		return nil, fmt.Errorf("agg: no cell walk for %v with key %+v and products %+v: %s", wordSizes, key, products, why)
	}
	if len(products) == 0 || key.Input < cols {
		return fail("it needs a product and a key input of its own")
	}
	// Each column is filled by exactly one of: a product, a factor's code,
	// the base, the byte column.
	claimed := make([]bool, cols)
	claim := func(col int) bool {
		if col < 0 || col >= cols || claimed[col] {
			return false
		}
		claimed[col] = true
		return true
	}
	var codes [8]cellSum // a key byte holds at most eight codes
	for j, f := range key.Factors {
		if f.Bits == 0 || c.bits+f.Bits > 8 || f.Col >= 0 && !claim(f.Col) {
			return fail("the codes overflow a key byte, or a code's column is taken")
		}
		codes[j] = cellSum{col: f.Col, shift: c.bits, mask: 1<<f.Bits - 1, ax: 1, sign: 1}
		if c.bits += f.Bits; f.Col >= 0 {
			c.sums = append(c.sums, codes[j])
		}
	}
	if numGroups<<c.bits > maxCells {
		return fail(fmt.Sprintf("%d groups of %d-bit keys exceed %d cells", numGroups, c.bits, maxCells))
	}
	sign := uint64(1)
	for j, p := range products {
		if p.Y < 0 || p.Y >= len(key.Factors) || !claim(p.Col) || p.X < 0 && j == 0 || p.X == key.Input || p.X >= 0 && c.base >= 0 && p.X != c.base {
			return fail("a product's factor or column is not its own, or its base is not the one base")
		}
		if p.X >= 0 {
			c.base, sign = p.X, 1
		}
		// The base term ±B + AddX, B = sign·raw of the previous product (or
		// x, sign 1), is s·(raw + s·AddX) with s = ±sign.
		s, sy := sign*signOf(p.NegX), signOf(p.NegY)
		sign = s * sy
		sum := codes[p.Y]
		sum.col, sum.base, sum.ax, sum.ay, sum.sign = p.Col, ^uint64(0), s*uint64(p.AddX), sy*uint64(p.AddY), sign
		if p.X < 0 {
			sum.base, sum.prev = 0, ^uint64(0)
		}
		c.sums = append(c.sums, sum)
	}
	if c.base < cols {
		if wordSizes[c.base] != 4 || !claim(c.base) {
			return fail("the base is not a 4-byte column of its own")
		}
		c.sums = append(c.sums, cellSum{col: c.base, base: ^uint64(0), ay: 1, sign: 1})
	}
	for col, ws := range wordSizes {
		switch {
		case claimed[col]:
		case ws != 1 || c.narrow < cols:
			return fail("a column is neither a product, a code, the base nor the one byte column")
		default:
			c.narrow = col
		}
	}
	return &MultiLayout{numGroups: numGroups, skip: skipGroup, slots: make([]maSlot, cols), cells: c, flushRows: maxRowsBetweenFolds}, nil
}

// signOf is ±1 modulo 2^64.
func signOf(neg bool) uint64 {
	if neg {
		return ^uint64(0)
	}
	return 1
}

// RowWords reports how many 64-bit words an accumulator row of the layout
// uses — two for a cell — which the ablation benches use to show efficiency
// versus row density.
func (l *MultiLayout) RowWords() int {
	if l.cells != nil {
		return 2
	}
	return l.ncarrier + len(l.wide)
}

// NewState allocates the mutable accumulator state for one scan over this
// layout. States from the same layout are independent: concurrent scans
// sharing a plan each hold their own.
//
//bipie:allow hotalloc — constructor: pooled by the engine, allocations here are the setup the hot loops reuse
func (l *MultiLayout) NewState() *MultiAgg {
	m := &MultiAgg{
		layout: l,
		counts: make([]int64, l.numGroups),
		sums:   make([][]int64, len(l.slots)),
	}
	for c := range m.sums {
		m.sums[c] = make([]int64, l.numGroups)
	}
	if l.cells != nil {
		m.cells = new(cellRows)
		return m
	}
	m.acc = new(accRows)
	m.carrier = make([][]uint64, l.ncarrier)
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

// accRows is the read walk's accumulator block: one row per byte-wide group
// id, so the id indexes it without a bounds check.
type accRows [256][maxRowWords]uint64

// cellRows is the cell walk's block: group g owns cells g<<bits on.
type cellRows [maxCells][2]uint64

// MultiAgg is the per-scan execution state of a multi-aggregate plan:
// accumulator-row partial sums per group (or per cell), the widened 64-bit
// totals, and, for the read walk, one tile of carrier words. One MultiAgg
// belongs to exactly one scan at a time.
type MultiAgg struct {
	layout *MultiLayout
	acc    *accRows  // the read walk's rows; nil for a cell walk
	cells  *cellRows // the cell walk's; nil for the read walk
	rowsIn int       // rows accumulated since the last flush
	counts []int64   // counts[group], flushed totals
	sums   [][]int64 // sums[col][group], flushed totals
	// carrier[w] holds one tile of carrier word w, reused across tiles; nil
	// for a cell walk.
	carrier [][]uint64
}

// NewMultiAgg builds a read-walk layout and its state in one step — the
// one-shot constructor kept for benches and tests; the engine plans the
// layout once and pools states.
func NewMultiAgg(numGroups, skipGroup int, wordSizes []int) (*MultiAgg, error) {
	l, err := NewMultiLayout(numGroups, skipGroup, wordSizes)
	if err != nil {
		return nil, err
	}
	return l.NewState(), nil
}

// Reset clears the accumulators — the groups' rows or cells — for reuse by
// a new scan. The layout, plan state, is untouched.
func (m *MultiAgg) Reset() {
	if c := m.layout.cells; c != nil {
		clear(m.cells[:m.layout.numGroups<<c.bits])
	} else {
		clear(m.acc[:m.layout.numGroups])
	}
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
// holds the values of aggregate c, batch-aligned with groups — and, past
// the aggregate columns, a cell walk's key and a base no column sums. The
// read walk builds each tile's carrier words, then adds each row's words
// to its group's row; the cell walk adds its two to the row's cell.
//
//bipie:kernel
func (m *MultiAgg) Accumulate(groups []uint8, cols []*bitpack.Unpacked) {
	l := m.layout
	for off := 0; off < len(groups); {
		n := min(len(groups)-off, l.flushRows-m.rowsIn)
		if c := l.cells; c != nil {
			accumulateCells(m.cells, groups[off:off+n], cols[c.key].U8[off:], cols[c.narrow].U8[off:], cols[c.base].U32[off:], 1<<c.bits)
		} else {
			n = min(n, tileRows)
			for i := range l.carriers {
				cw := &l.carriers[i]
				buildCarrier(m.carrier[cw.word][:n], cw, cols[cw.a], cols[cw.b], off)
			}
			// Further carrier words and 8-byte columns, then 4-byte ones.
			var w [maxRowWords - 1][]uint64
			var h [maxRowWords - 1][]uint32
			nw, nh := 0, 0
			for cw := 1; cw < l.ncarrier; cw++ {
				w[nw] = m.carrier[cw][:n]
				nw++
			}
			for _, c := range l.wide {
				if col := cols[c]; col.WordSize == 4 {
					h[nh] = col.U32[off : off+n]
					nh++
				} else {
					w[nw] = col.U64[off : off+n]
					nw++
				}
			}
			addRows(m.acc, groups[off:off+n], m.carrier[0][:n], w[:nw], h[:nh])
		}
		off += n
		if m.rowsIn += n; m.rowsIn == l.flushRows {
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

// accumulateCells is the cell walk: row i adds its count and byte column
// to word 0 of cell groups[i]·stride + keys[i] — stride is a group's cells,
// 1<<bits — and its base to word 1: two read-modify-writes, no product. The
// group moves up by a multiply, one micro-op where a shift by a count that
// is not a constant takes three; the mask keeps the index inside the block
// for the compiler, the layout already below numGroups·stride. Like the
// read walk's loops it is a frame of its own (inlined into Accumulate, its
// loop reloaded a vector from the stack every row) and counts down to zero,
// so no register holds the length.
//
//bipie:kernel
//bipie:nobce
//go:noinline
func accumulateCells(block *cellRows, groups, keys, a []uint8, x []uint32, stride uint) {
	rows, keys, a, x := block[:], keys[:len(groups)], a[:len(groups)], x[:len(groups)]
	for i := len(groups) - 1; i >= 0; i-- {
		row := &rows[(uint(groups[i])*stride+uint(keys[i]))%maxCells]
		row[0] += uint64(a[i]) | 1<<cellCountShift
		row[1] += uint64(x[i])
	}
}

// addRows runs the walk of a row whose words after the carrier c are the
// 8-byte words w, then the 4-byte words h — the layout's order, so the
// accumulate loop is instantiated once per (len(w), len(h)): 15 loops, not
// one per 4-/8-byte choice of each word.
func addRows(acc *accRows, groups []uint8, c []uint64, w [][]uint64, h [][]uint32) {
	switch 10*len(w) + len(h) { // tens: 8-byte words, units: 4-byte ones
	case 0:
		accumulate1(acc, groups, c)
	case 1:
		accumulate2(acc, groups, c, h[0])
	case 10:
		accumulate2(acc, groups, c, w[0])
	case 2:
		accumulate3(acc, groups, c, h[0], h[1])
	case 11:
		accumulate3(acc, groups, c, w[0], h[0])
	case 20:
		accumulate3(acc, groups, c, w[0], w[1])
	case 3:
		accumulate4(acc, groups, c, h[0], h[1], h[2])
	case 12:
		accumulate4(acc, groups, c, w[0], h[0], h[1])
	case 21:
		accumulate4(acc, groups, c, w[0], w[1], h[0])
	case 30:
		accumulate4(acc, groups, c, w[0], w[1], w[2])
	case 4:
		accumulate5(acc, groups, c, h[0], h[1], h[2], h[3])
	case 13:
		accumulate5(acc, groups, c, w[0], h[0], h[1], h[2])
	case 22:
		accumulate5(acc, groups, c, w[0], w[1], h[0], h[1])
	case 31:
		accumulate5(acc, groups, c, w[0], w[1], w[2], h[0])
	default:
		accumulate5(acc, groups, c, w[0], w[1], w[2], w[3])
	}
}

// accumulate1..5 are the read walk over the group ids: row i's words are
// added to its group's accumulator row, one load-add-store per word. The
// block is sliced once ahead of the loop, so the loop indexes a slice of
// 256 rows — not the block pointer, which the compiler nil-checks on every
// row — and the byte group id needs no bounds check. Consecutive rows of
// one group queue behind each other's stores as they do in the scalar row
// loops, but a row's words are separate chains that overlap; a second block
// for alternate rows measured no gain on Q1's shape. Each is a frame of its
// own (accumulate5 is past the inlining budget anyway), so its loop's
// registers follow from its arguments alone, not from the dispatch around
// it.

//bipie:kernel
//bipie:nobce
//go:noinline
func accumulate1(acc *accRows, groups []uint8, c []uint64) {
	rows, c := acc[:], c[:len(groups)]
	for i, g := range groups {
		rows[g][0] += c[i]
	}
}

//bipie:kernel
//bipie:nobce
//go:noinline
func accumulate2[A wideWord](acc *accRows, groups []uint8, c []uint64, a []A) {
	rows, c, a := acc[:], c[:len(groups)], a[:len(groups)]
	for i, g := range groups {
		row := &rows[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
	}
}

//bipie:kernel
//bipie:nobce
//go:noinline
func accumulate3[A, B wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B) {
	rows, c, a, b := acc[:], c[:len(groups)], a[:len(groups)], b[:len(groups)]
	for i, g := range groups {
		row := &rows[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
		row[2] += uint64(b[i])
	}
}

//bipie:kernel
//bipie:nobce
//go:noinline
func accumulate4[A, B, C wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B, d []C) {
	rows, c, a, b, d := acc[:], c[:len(groups)], a[:len(groups)], b[:len(groups)], d[:len(groups)]
	for i, g := range groups {
		row := &rows[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
		row[2] += uint64(b[i])
		row[3] += uint64(d[i])
	}
}

//bipie:kernel
//bipie:nobce
func accumulate5[A, B, C, D wideWord](acc *accRows, groups []uint8, c []uint64, a []A, b []B, d []C, e []D) {
	rows, c, a, b, d, e := acc[:], c[:len(groups)], a[:len(groups)], b[:len(groups)], d[:len(groups)], e[:len(groups)]
	for i, g := range groups {
		row := &rows[g]
		row[0] += c[i]
		row[1] += uint64(a[i])
		row[2] += uint64(b[i])
		row[3] += uint64(d[i])
		row[4] += uint64(e[i])
	}
}

// Flush folds the accumulator rows into the 64-bit totals and clears them
// (the widening step of §5.4): the count and every narrow field are cut out
// of their carrier word, a wide slot is its word; a cell walk folds its
// cells (foldCells).
//
//bipie:kernel
func (m *MultiAgg) Flush() {
	m.rowsIn = 0
	if m.layout.cells != nil {
		m.foldCells()
		return
	}
	for g := 0; g < m.layout.numGroups; g++ {
		row := &m.acc[g]
		m.counts[g] += int64(row[0] >> countShift)
		for c, s := range m.layout.slots {
			m.sums[c][g] += int64(row[s.word] >> s.shift & (1<<s.bits - 1))
		}
		*row = [maxRowWords]uint64{}
	}
}

// foldCells adds each cell to its group's totals — the count and the byte
// column cut out of word 0, each cellSum computed once — and clears it.
//
//bipie:kernel
func (m *MultiAgg) foldCells() {
	c := m.layout.cells
	for g := 0; g < m.layout.numGroups; g++ {
		block := m.cells[g<<c.bits : (g+1)<<c.bits]
		for k, row := range block {
			cnt := row[0] >> cellCountShift
			if cnt == 0 {
				continue
			}
			m.counts[g] += int64(cnt)
			if c.narrow < len(m.sums) {
				m.sums[c.narrow][g] += int64(row[0] & cellFieldMask)
			}
			var v uint64
			for _, s := range c.sums {
				v = (row[1]&s.base | v&s.prev + s.ax*cnt) * (uint64(k)>>s.shift&s.mask + s.ay)
				m.sums[s.col][g] += int64(s.sign * v)
			}
		}
		clear(block)
	}
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
