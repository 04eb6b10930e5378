package agg

import (
	"fmt"
	"slices"

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
// carrier words (two fields each). Every 4- or 8-byte input owns a whole
// word, 8-byte words before 4-byte ones, and is read straight from its
// unpacked vector by the accumulate loop; 8-byte inputs sum modulo 2^64,
// which is int64's wrapping sum. The read walk (walkRead) materializes
// only its carrier words: a typed pass builds them per tile from the narrow
// columns, two at a time, and the walk reads them back.
//
// Up to two wide words may instead be product words (Product): the walk
// computes a multiplication of the engine's sum-expression program per row,
// in registers, from the vectors the batch loaded anyway, so the product is
// never stored only to be loaded again. The walk has exactly the two shapes
// the benchmark's queries run (walkShape), and both build their one carrier
// word in registers too: the first product's 1-byte factor at bit 0, where
// the product takes it back out, and a byte column right above it — so
// these walks materialize nothing.
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
	// byteField is the width of a 1-byte input's field, and so where a
	// carrier's second byte field starts.
	byteField = 8 + fieldSpare
)

// maSlot places one aggregate input in the accumulator row: a bit field of
// a carrier word (1- and 2-byte inputs), or a whole word (bits = 64). A
// product word holds its value negated when neg is set.
type maSlot struct {
	word  int
	shift uint
	bits  uint
	neg   bool
}

// maCarrier names the (at most two) narrow inputs a carrier word is built
// from: a's field starts at bit 0, b's right above it, at the bit mulB has
// set. A word with one field lists it twice with mulB = 1, which ORs to
// itself. A product walk's one carrier (carryFactor) always has a, the
// factor, at bit 0; a and b may be inputs no slot reads.
type maCarrier struct {
	word   int
	a, b   int // inputs of Accumulate's cols
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
	wide      []int       // columns read into words ncarrier.., in word order
	prods     []maProduct // product words, after the wide ones
	walk      walkShape   // the accumulate loop, chosen with prods
}

// walkShape names the accumulate loop of a layout. NewProductLayout admits
// products only in the two shapes with a loop, and Accumulate switches on
// this same value, so a layout cannot reach a loop that drops a product.
type walkShape uint8

const (
	// walkRead reads every word from a vector (addRows).
	walkRead walkShape = iota
	// walk1P is the carrier, then one product on a base no column sums —
	// the serving mix's Q1 (accumulate1P).
	walk1P
	// walk2RC is the carrier, a 4-byte column, a product on it and a
	// second chained on the first — Q1's price, disc_price and charge
	// (accumulate2RC).
	walk2RC
)

// Product is a wide word the accumulate walk computes per row instead of
// reading it: (±x + AddX)·(±y + AddY) modulo 2^64, the value of a
// multiplication node of the engine's sum-expression program (exact, for a
// node proven to fit 4 bytes). y is input Y, a 1-byte vector; x is input X,
// a 4-byte vector, or for a second product the row's value of the first,
// taken as it stands (X unread, AddX = 0). Inputs index Accumulate's cols,
// which may run past the aggregate columns to vectors only a product reads;
// column Col's own entry is not read.
type Product struct {
	Col        int
	X, Y       int
	NegX, NegY bool
	AddX, AddY int64
}

// maProduct is a product word as the walk computes it: the raw value
// (x + ax)·(y + ay), with both signs moved out onto the slot — ±x + AddX is
// ±(x ± AddX), so the word sums ±the product and the flush restores the
// sign. The second product's x is the first's raw value.
type maProduct struct {
	x, y   int
	ax, ay uint64
}

// NewMultiLayout builds the row layout for aggregate columns of the given
// unpacked word sizes (1, 2, 4, or 8 bytes). It returns an error when the
// row would need more than maxRowWords words, in which case the caller must
// plan another strategy. This is the metadata-only half of the strategy:
// validating a layout allocates no accumulator state.
func NewMultiLayout(numGroups, skipGroup int, wordSizes []int) (*MultiLayout, error) {
	return NewProductLayout(numGroups, skipGroup, wordSizes, nil)
}

// NewProductLayout is NewMultiLayout with some 4- or 8-byte columns computed
// by the walk (Product), in one of the walk's two shapes: word 0 holding the
// first product's factor and at most one byte column beside it
// (carryFactor), then either one product on a base no column sums (walk1P),
// or a 4-byte column, a product on it and a second on the first (walk2RC).
// Any other set of products is an error, and the caller materializes them
// instead. A product column still owns a whole word, so the row is as long
// as without products.
//
//bipie:allow hotalloc — plan-time constructor: runs once per (query, segment), never in a scan loop
func NewProductLayout(numGroups, skipGroup int, wordSizes []int, products []Product) (*MultiLayout, error) {
	l := &MultiLayout{numGroups: numGroups, skip: skipGroup, slots: make([]maSlot, len(wordSizes)), ncarrier: 1}
	var err error
	if l.walk, err = walkOf(wordSizes, products); err != nil {
		return nil, err
	}
	// One lane order for the whole row. Narrow fields fill carrier words
	// from bit 0 up, 1-byte inputs first: word 0 has 48 bits under the count
	// — two byte fields or one 2-byte field — and any two fields fit a later
	// word, so this order wastes no word. Then every column read whole owns
	// a word, 8-byte ones first, so the walk has one loop per count of each
	// (addRows); in walk2RC the one column left read is the first product's
	// base.
	used, limit := uint(0), uint(countShift)
	for _, size := range [4]int{1, 2, 8, 4} {
		for c, ws := range wordSizes {
			switch {
			case ws != size || slices.ContainsFunc(products, func(p Product) bool { return p.Col == c }):
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
	if l.walk != walkRead {
		if err := l.carryFactor(wordSizes, products[0].Y); err != nil {
			return nil, err
		}
	}
	sign := uint64(1)
	for j, p := range products {
		sx, sy := signOf(p.NegX), signOf(p.NegY)
		sign *= sx * sy
		l.slots[p.Col] = maSlot{word: l.ncarrier + len(l.wide) + j, bits: 64, neg: sign != 1}
		l.prods = append(l.prods, maProduct{x: p.X, y: p.Y, ax: sx * uint64(p.AddX), ay: sy * uint64(p.AddY)})
	}
	if l.RowWords() > maxRowWords {
		return nil, fmt.Errorf("agg: multi-aggregate row overflow: %v needs %d words, the row has %d", wordSizes, l.RowWords(), maxRowWords)
	}
	return l, nil
}

// walkOf names the loop that computes products over columns of wordSizes,
// or explains why none does.
//
//bipie:allow hotalloc — plan-time check: NewProductLayout's, never in a scan loop
func walkOf(wordSizes []int, products []Product) (walkShape, error) {
	cols := len(wordSizes)
	wide := 0
	for _, ws := range wordSizes {
		if ws >= 4 {
			wide++
		}
	}
	for j, p := range products {
		switch {
		case p.Col < 0 || p.Col >= cols || wordSizes[p.Col] < 4:
			return walkRead, fmt.Errorf("agg: product %d fills column %d, not a 4- or 8-byte one of %v", j, p.Col, wordSizes)
		case p.Y < 0 || p.Y < cols && wordSizes[p.Y] != 1:
			return walkRead, fmt.Errorf("agg: product %d's factor %d is not a 1-byte vector of %v", j, p.Y, wordSizes)
		}
	}
	switch p := products; {
	case len(p) == 0:
		return walkRead, nil
	case len(p) == 1 && p[0].X >= cols && wide == 1:
		return walk1P, nil
	case len(p) == 2 && p[0].X >= 0 && p[0].X < cols && wordSizes[p[0].X] == 4 && p[1].AddX == 0 && wide == 3 &&
		p[0].X != p[0].Col && p[0].X != p[1].Col && p[0].Col != p[1].Col:
		return walk2RC, nil
	}
	return walkRead, fmt.Errorf("agg: products %+v over %v: the walk computes one product on a base of its own "+
		"after narrow columns, or, after narrow columns and a 4-byte one, a product on it and a second on the first", products, wordSizes)
}

// carryFactor lays out word 0 of a product walk as the carrier the walk
// builds in registers: the first product's factor y at bit 0, where the
// walk takes its low byte back out for the multiply, so y is loaded once,
// and a byte column right above it. A factor no column sums still rides
// there, in a field no slot reads, and with no byte column beside it the
// factor fills the second field too; both sum to at most
// maxRowsBetweenFlushes × 255, inside their 24 bits. A carrier with
// anything else — a 2-byte field, or two byte columns beside a factor of
// their own — needs a third field or a wider one, and is an error.
//
//bipie:allow hotalloc — plan-time check: NewProductLayout's, never in a scan loop
func (l *MultiLayout) carryFactor(wordSizes []int, y int) error {
	b := y
	for c, ws := range wordSizes {
		switch {
		case ws >= 4 || c == y:
		case ws != 1 || b != y:
			return fmt.Errorf("agg: products over %v: the walk's carrier holds factor %d and at most one byte column beside it", wordSizes, y)
		default:
			b = c
		}
	}
	if y < len(wordSizes) {
		l.slots[y] = maSlot{bits: byteField}
	}
	if b != y {
		l.slots[b] = maSlot{shift: byteField, bits: byteField}
	}
	l.carriers = []maCarrier{{a: y, b: b, wa: 1, wb: 1, mulB: 1 << byteField, inc: 1 << countShift}}
	return nil
}

// signOf is ±1 modulo 2^64.
func signOf(neg bool) uint64 {
	if neg {
		return ^uint64(0)
	}
	return 1
}

// RowWords reports how many 64-bit words an accumulator row of the layout
// uses; the ablation benches use it to show efficiency versus row density.
func (l *MultiLayout) RowWords() int { return l.ncarrier + len(l.wide) + len(l.prods) }

// NewState allocates the mutable accumulator state for one scan over this
// layout. States from the same layout are independent: concurrent scans
// sharing a plan each hold their own.
//
//bipie:allow hotalloc — constructor: pooled by the engine, allocations here are the setup the hot loops reuse
func (l *MultiLayout) NewState() *MultiAgg {
	m := &MultiAgg{
		layout: l,
		acc:    new(accRows),
		counts: make([]int64, l.numGroups),
		sums:   make([][]int64, len(l.slots)),
	}
	for c := range m.sums {
		m.sums[c] = make([]int64, l.numGroups)
	}
	if l.walk != walkRead {
		return m // the product walks build their carrier in registers
	}
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

// accRows is the accumulator block: one row per byte-wide group id, so the
// id indexes it without a bounds check.
type accRows [256][maxRowWords]uint64

// MultiAgg is the per-scan execution state of a multi-aggregate plan:
// accumulator-row partial sums per group, the widened 64-bit totals, and,
// for the read walk, one tile of carrier words. One MultiAgg belongs to
// exactly one scan at a time.
type MultiAgg struct {
	layout *MultiLayout
	acc    *accRows
	rowsIn int       // rows accumulated since the last flush
	counts []int64   // counts[group], flushed totals
	sums   [][]int64 // sums[col][group], flushed totals
	// carrier[w] holds one tile of carrier word w, reused across tiles; nil
	// for a product walk.
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
// holds the values of aggregate c, batch-aligned with groups — and, past
// the aggregate columns, any vector only a product word reads. It walks the
// group ids once, adding the whole row — count, narrow fields, in-place wide
// values and products — to the group's accumulator row; the read walk
// builds each tile's carrier words first.
//
//bipie:kernel
func (m *MultiAgg) Accumulate(groups []uint8, cols []*bitpack.Unpacked) {
	l := m.layout
	for off := 0; off < len(groups); {
		n := min(len(groups)-off, maxRowsBetweenFlushes-m.rowsIn)
		if l.walk != walkRead {
			l.addProducts(m.acc, groups[off:off+n], cols, off)
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

// addProducts adds rows with the loop of the layout's walk shape, handing
// it word 0's two carrier columns — the factor first — and the base. Like
// addRows it keeps the dispatch out of Accumulate, and each walk is a frame
// of its own, so its loop's registers follow from its arguments alone.
func (l *MultiLayout) addProducts(acc *accRows, groups []uint8, cols []*bitpack.Unpacked, off int) {
	end := off + len(groups)
	cw, p := &l.carriers[0], &l.prods[0]
	y, b, x := cols[cw.a].U8[off:end], cols[cw.b].U8[off:end], cols[p.x].U32[off:end]
	switch l.walk {
	case walk1P:
		accumulate1P(acc, groups, y, b, x, p.ax, p.ay)
	case walk2RC:
		q := &l.prods[1]
		accumulate2RC(acc, groups, y, b, x, cols[q.y].U8[off:end], p.ax, p.ay, q.ay)
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

// accumulate1..5 are the one walk over the group ids: row i's words are
// added to its group's accumulator row, one load-add-store per word. The
// group id is a byte and the block has 256 rows, so nothing in the loop is
// bounds-checked. Consecutive rows of one group queue behind each other's
// stores as they do in the scalar row loops, but a row's words are separate
// chains that overlap; a second block for alternate rows measured no gain
// on Q1's shape. Each is a frame of its own (accumulate5 is past the inlining
// budget anyway), so its loop's registers follow from its arguments alone,
// not from the dispatch around it.

//bipie:kernel
//bipie:nobce
//go:noinline
func accumulate1(acc *accRows, groups []uint8, c []uint64) {
	c = c[:len(groups)]
	for i, g := range groups {
		acc[g][0] += c[i]
	}
}

//bipie:kernel
//bipie:nobce
//go:noinline
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
//go:noinline
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
//go:noinline
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

// accumulate1P and accumulate2RC are the walk of the two product shapes
// (walkShape): the carrier, then one product on a base of its own; or the
// carrier, a 4-byte word that is also the product's base — loaded once for
// both — the product and a second chained on it. Each row builds its
// carrier in registers from factor y and byte column b (carryFactor) and
// takes the factor back out of its low byte for the multiply: kept live
// beside the carrier, y costs a register the loop does not have, and is
// reloaded from the stack every row; and a factor at bit 0 needs no shift
// to come back out. A product is two adds and a multiply in registers —
// ALU slots the walk's read-modify-writes leave idle — and no load beyond
// its factor byte. The loops count down to zero, so no register holds the
// length: with the vectors and addends of accumulate2RC that keeps the loop
// free of stack reloads.

//bipie:kernel
//bipie:nobce
func accumulate1P(acc *accRows, groups []uint8, y, b []uint8, x []uint32, ax, ay uint64) {
	y, b, x = y[:len(groups)], b[:len(groups)], x[:len(groups)]
	for i := len(groups) - 1; i >= 0; i-- {
		row := &acc[groups[i]]
		c := uint64(y[i]) | uint64(b[i])<<byteField | 1<<countShift
		row[0] += c
		row[1] += (uint64(x[i]) + ax) * (uint64(uint8(c)) + ay)
	}
}

//bipie:kernel
//bipie:nobce
func accumulate2RC(acc *accRows, groups []uint8, y, b []uint8, x []uint32, z []uint8, ax, ay, az uint64) {
	y, b, x, z = y[:len(groups)], b[:len(groups)], x[:len(groups)], z[:len(groups)]
	for i := len(groups) - 1; i >= 0; i-- {
		row := &acc[groups[i]]
		c := uint64(y[i]) | uint64(b[i])<<byteField | 1<<countShift
		row[0] += c
		xi := uint64(x[i])
		row[1] += xi
		p := (xi + ax) * (uint64(uint8(c)) + ay)
		row[2] += p
		row[3] += p * (uint64(z[i]) + az)
	}
}

// Flush folds the accumulator rows into the 64-bit totals and clears them
// (the widening step of §5.4): the count and every narrow field are cut out
// of their carrier word, a wide slot is its word — negated for a product
// whose sign the walk left out.
//
//bipie:kernel
func (m *MultiAgg) Flush() {
	for g := 0; g < m.layout.numGroups; g++ {
		row := &m.acc[g]
		m.counts[g] += int64(row[0] >> countShift)
		for c, s := range m.layout.slots {
			v := row[s.word] >> s.shift & (1<<s.bits - 1)
			if s.neg {
				v = -v
			}
			m.sums[c][g] += int64(v)
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
