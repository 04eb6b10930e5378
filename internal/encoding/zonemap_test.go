package encoding

import (
	"math/bits"
	"math/rand"
	"testing"
)

// zoneBoundsOracle computes the true extrema of rows [start, start+n) by
// decoding, in offset space.
func zoneBoundsOracle(c *BitPackColumn, start, n int) (mn, mx uint64) {
	mn, mx = c.packed.Get(start), c.packed.Get(start)
	for i := start + 1; i < start+n; i++ {
		o := c.packed.Get(i)
		if o < mn {
			mn = o
		}
		if o > mx {
			mx = o
		}
	}
	return mn, mx
}

func TestZoneBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	n := 3*ZoneRows + 777
	vals := make([]int64, n)
	for i := range vals {
		// Clustered: zone z concentrates around 1000*z with noise, so
		// adjacent zones have disjoint ranges and skipping is provable.
		vals[i] = int64(i/ZoneRows)*1000 + rng.Int63n(500) - 3000
	}
	c := NewBitPack(vals)

	// Zone-aligned ranges are exact; the oracle must agree.
	for z := 0; z*ZoneRows < n; z++ {
		start := z * ZoneRows
		rows := ZoneRows
		if start+rows > n {
			rows = n - start
		}
		mn, mx := c.ZoneBounds(start, rows)
		omn, omx := zoneBoundsOracle(c, start, rows)
		if mn != omn || mx != omx {
			t.Fatalf("zone %d: got [%d,%d] want [%d,%d]", z, mn, mx, omn, omx)
		}
	}

	// Cross-zone ranges are conservative: they contain the true extrema.
	for _, r := range []struct{ start, n int }{
		{0, n}, {100, 2 * ZoneRows}, {ZoneRows - 1, 2}, {n - 10, 10},
	} {
		mn, mx := c.ZoneBounds(r.start, r.n)
		omn, omx := zoneBoundsOracle(c, r.start, r.n)
		if mn > omn || mx < omx {
			t.Fatalf("range %+v: [%d,%d] does not contain true [%d,%d]", r, mn, mx, omn, omx)
		}
	}

	// Degenerate requests fall back to column-level bounds.
	mn, mx := c.ZoneBounds(0, 0)
	if mn != 0 || mx != uint64(c.Max()-c.Min()) {
		t.Fatalf("empty range: [%d,%d]", mn, mx)
	}
}

// Zone maps are derived data: a column reconstructed from its serialized
// form must rebuild identical bounds without a format change. At every
// width 1–64 and at lengths of one zone, several zones, a ragged final zone
// ending in a partial period and less than one period (two values at the
// widths whose period is shorter), the loaded zones equal the encoder's
// and the decoded extrema of each zone.
func TestZoneBoundsSurviveSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for width := uint8(1); width <= 64; width++ {
		period := 64 >> bits.TrailingZeros8(width|64)
		mask := ^uint64(0) >> (64 - width)
		ref := int64(-1) << (width - 1)
		for _, n := range []int{ZoneRows, 3 * ZoneRows, 2*ZoneRows + 37, max(period-1, 2)} {
			offs := make([]uint64, n)
			for z := 0; z < n; z += ZoneRows {
				lo, spread := rng.Uint64()&mask, mask>>rng.Intn(int(width)+1)
				for i := z; i < min(z+ZoneRows, n); i++ {
					if offs[i] = lo + rng.Uint64()&spread; offs[i] > mask || offs[i] < lo {
						offs[i] = lo
					}
				}
			}
			at := rng.Intn(n)
			offs[at], offs[(at+1+rng.Intn(n-1))%n] = 0, mask // pin the width
			vals := make([]int64, n)
			for i, o := range offs {
				vals[i] = ref + int64(o)
			}
			c := NewBitPack(vals)
			if c.Width() != width {
				t.Fatalf("width %d: encoded at %d bits", width, c.Width())
			}
			raw, err := AppendIntColumn(nil, c)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := ReadIntColumn(NewCursor(raw))
			if err != nil {
				t.Fatal(err)
			}
			rc := rt.(*BitPackColumn)
			if len(rc.zoneMin) != len(c.zoneMin) {
				t.Fatalf("width %d n %d: %d zones loaded, %d encoded", width, n, len(rc.zoneMin), len(c.zoneMin))
			}
			for z := range c.zoneMin {
				start := z * ZoneRows
				omn, omx := zoneBoundsOracle(c, start, min(ZoneRows, n-start))
				if c.zoneMin[z] != omn || c.zoneMax[z] != omx || rc.zoneMin[z] != omn || rc.zoneMax[z] != omx {
					t.Fatalf("width %d n %d zone %d: encoded [%d,%d], loaded [%d,%d], decoded [%d,%d]",
						width, n, z, c.zoneMin[z], c.zoneMax[z], rc.zoneMin[z], rc.zoneMax[z], omn, omx)
				}
			}
		}
	}
}
