// Package tpch provides a deterministic in-process generator for the
// TPC-H LINEITEM columns Query 1 touches, and Query 1 itself on top of the
// BIPie engine (paper §6.3).
//
// The paper ran dbgen at scale factor 100 (~600M rows). Generating and
// holding that in a test process is impractical, so this generator
// reproduces the *distributions* that drive Q1's behaviour instead of the
// row count: quantity uniform in [1,50]; extended price from the spec's
// retail-price range; discount in [0.00,0.10] and tax in [0.00,0.08];
// shipdate spread over the 1992–1998 order window so the Q1 cutoff keeps
// ~98% of rows; and returnflag/linestatus derived from dates exactly as
// dbgen derives them (three flag values × two status values, six possible
// groups, four populated at the cutoff — matching the paper's metadata
// discussion). Row count is a parameter; per-row costs are what Q1
// measures, so shape survives the scale-down.
//
// Fixed-point columns are scaled integers: price in cents, discount and
// tax in hundredths.
//
// The order in which the row loop (lineitems.fill) draws from the seeded
// source defines every table this package builds, and through them every
// benchmark table, answer and bytes-per-row figure: a change that adds,
// drops or reorders a draw changes them all, and TestGenerateDigest pins
// the bytes of three tables.
package tpch

import (
	"math/rand"

	"bipie/internal/table"
)

// Epoch is day 0 of the generator's date encoding (1992-01-01, the start
// of the TPC-H order window).
const Epoch = "1992-01-01"

// Day numbers of interest, relative to Epoch (1992-01-01). Computed from
// calendar arithmetic once; kept as constants for clarity.
const (
	// CurrentDateDay is dbgen's CURRENTDATE (1995-06-17), which splits
	// returnflag and linestatus populations.
	CurrentDateDay = 1263
	// Q1CutoffDay is date '1998-12-01' - interval '90' day = 1998-09-02,
	// the Q1 shipdate upper bound.
	Q1CutoffDay = 2436
	// MaxOrderDay is 1998-08-02, the last order date dbgen generates.
	MaxOrderDay = 2405
)

// Columns are the LINEITEM columns Q1 references.
const (
	ColQuantity      = "l_quantity"      // integer units 1..50
	ColExtendedPrice = "l_extendedprice" // cents
	ColDiscount      = "l_discount"      // hundredths, 0..10
	ColTax           = "l_tax"           // hundredths, 0..8
	ColReturnFlag    = "l_returnflag"    // "A" | "N" | "R"
	ColLineStatus    = "l_linestatus"    // "F" | "O"
	ColShipDate      = "l_shipdate"      // days since Epoch
	ColOrderKey      = "l_orderkey"      // synthetic key, unused by Q1
)

// Schema returns the LINEITEM schema used by this package.
func Schema() table.Schema {
	return table.Schema{
		{Name: ColOrderKey, Type: table.Int64},
		{Name: ColQuantity, Type: table.Int64},
		{Name: ColExtendedPrice, Type: table.Int64},
		{Name: ColDiscount, Type: table.Int64},
		{Name: ColTax, Type: table.Int64},
		{Name: ColReturnFlag, Type: table.String},
		{Name: ColLineStatus, Type: table.String},
		{Name: ColShipDate, Type: table.Int64},
	}
}

// GenOptions configure generation.
type GenOptions struct {
	// Rows is the number of lineitem rows.
	Rows int
	// Seed fixes the random stream.
	Seed int64
	// SegmentRows overrides the table's segment size (0 = default ~1M).
	SegmentRows int
}

// Generate builds a LINEITEM table with Q1's column distributions.
func Generate(opt GenOptions) (*table.Table, error) {
	var topts []table.Option
	if opt.SegmentRows > 0 {
		topts = append(topts, table.WithSegmentRows(opt.SegmentRows))
	}
	tbl, err := table.New(Schema(), topts...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// One set of chunk buffers serves every chunk: AppendColumns copies
	// what it is given.
	const chunk = 1 << 18
	n := opt.Rows
	c := max(0, min(chunk, n))
	l := lineitems{
		orderKey:      make([]int64, c),
		quantity:      make([]int64, c),
		extendedPrice: make([]int64, c),
		discount:      make([]int64, c),
		tax:           make([]int64, c),
		shipDate:      make([]int64, c),
		returnFlag:    make([]string, c),
		lineStatus:    make([]string, c),
	}
	for done := 0; done < n; done += chunk {
		m := min(chunk, n-done)
		l.fill(rng, done, m)
		ints := map[string][]int64{
			ColOrderKey:      l.orderKey[:m],
			ColQuantity:      l.quantity[:m],
			ColExtendedPrice: l.extendedPrice[:m],
			ColDiscount:      l.discount[:m],
			ColTax:           l.tax[:m],
			ColShipDate:      l.shipDate[:m],
		}
		strs := map[string][]string{
			ColReturnFlag: l.returnFlag[:m],
			ColLineStatus: l.lineStatus[:m],
		}
		if err := tbl.AppendColumns(ints, strs); err != nil {
			return nil, err
		}
	}
	tbl.Flush()
	return tbl, nil
}

// lineitems holds one chunk of generated rows, a slice per column.
type lineitems struct {
	orderKey, quantity, extendedPrice, discount, tax, shipDate []int64
	returnFlag, lineStatus                                     []string
}

// fill generates rows first..first+m-1 into the first m entries of each
// column, in the draw order the package comment pins.
func (l *lineitems) fill(rng *rand.Rand, first, m int) {
	orderKey, quantity, extendedPrice := l.orderKey[:m], l.quantity[:m], l.extendedPrice[:m]
	discount, tax, shipDate := l.discount[:m], l.tax[:m], l.shipDate[:m]
	returnFlag, lineStatus := l.returnFlag[:m], l.lineStatus[:m]
	for i := range orderKey {
		orderDay := int63n(rng, rng.Int63(), MaxOrderDay+1)
		shipDay := orderDay + 1 + int63n(rng, rng.Int63(), 121) // O_ORDERDATE + random [1,121]
		receiptDay := shipDay + 1 + int63n(rng, rng.Int63(), 30)

		qty := int63n(rng, rng.Int63(), 50) + 1
		// P_RETAILPRICE spans roughly [901.00, 2098.99]; extended
		// price is quantity times a sampled retail price, in cents.
		retailCents := 90100 + int63n(rng, rng.Int63(), 209899-90100+1)
		orderKey[i] = int64(first + i)
		quantity[i] = qty
		extendedPrice[i] = qty * retailCents
		discount[i] = int63n(rng, rng.Int63(), 11)
		tax[i] = int63n(rng, rng.Int63(), 9)
		shipDate[i] = shipDay

		// dbgen: returnflag is R or A (coin flip) when the receipt
		// date is on or before CURRENTDATE, N otherwise; linestatus is
		// F when the ship date is on or before CURRENTDATE, O after.
		switch {
		case receiptDay <= CurrentDateDay && rng.Intn(2) == 0:
			returnFlag[i] = "R"
		case receiptDay <= CurrentDateDay:
			returnFlag[i] = "A"
		default:
			returnFlag[i] = "N"
		}
		if shipDay <= CurrentDateDay {
			lineStatus[i] = "F"
		} else {
			lineStatus[i] = "O"
		}
	}
}

// int63n is rng.Int63n(n) for n > 0 not a power of two, given its first
// draw v = rng.Int63(): the same values from the same draws. Called with a
// constant n it inlines, and its rejection threshold and modulus fold into
// constants, so a draw costs a compare and a multiply where Int63n divides
// twice.
func int63n(rng *rand.Rand, v, n int64) int64 {
	if v > 1<<63-1-int64((1<<63)%uint64(n)) {
		// Past a rejected first draw Int63n is its own rejection loop; for
		// the bounds fill uses that is less than once in 2^46 draws.
		return rng.Int63n(n)
	}
	return int64(uint64(v) % uint64(n))
}
