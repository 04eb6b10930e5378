package tpch

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/costmodel"
	"bipie/internal/encoding"
	"bipie/internal/engine"
	"bipie/internal/loadgen"
	"bipie/internal/obs"
	"bipie/internal/sel"
	"bipie/internal/sql"
)

func TestDayConstants(t *testing.T) {
	// Calendar cross-check of the hand-derived day numbers.
	days := func(y, m, d int) int {
		cum := []int{0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334}
		leap := func(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }
		n := 0
		for yy := 1992; yy < y; yy++ {
			n += 365
			if leap(yy) {
				n++
			}
		}
		n += cum[m-1]
		if m > 2 && leap(y) {
			n++
		}
		return n + d - 1
	}
	if got := days(1995, 6, 17); got != CurrentDateDay {
		t.Errorf("CurrentDateDay=%d want %d", CurrentDateDay, got)
	}
	if got := days(1998, 9, 2); got != Q1CutoffDay {
		t.Errorf("Q1CutoffDay=%d want %d", Q1CutoffDay, got)
	}
	if got := days(1998, 8, 2); got != MaxOrderDay {
		t.Errorf("MaxOrderDay=%d want %d", MaxOrderDay, got)
	}
}

func TestGenerateDistributions(t *testing.T) {
	tbl, err := Generate(GenOptions{Rows: 50000, Seed: 42, SegmentRows: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 50000 {
		t.Fatalf("rows=%d", tbl.Rows())
	}
	var qtyMin, qtyMax int64 = 1 << 60, -1
	var selected, flagN, statusO int
	for _, seg := range tbl.Segments() {
		qty, _ := seg.IntCol(ColQuantity)
		disc, _ := seg.IntCol(ColDiscount)
		tax, _ := seg.IntCol(ColTax)
		ship, _ := seg.IntCol(ColShipDate)
		rf, _ := seg.StrCol(ColReturnFlag)
		ls, _ := seg.StrCol(ColLineStatus)
		if qty.Min() < qtyMin {
			qtyMin = qty.Min()
		}
		if qty.Max() > qtyMax {
			qtyMax = qty.Max()
		}
		if disc.Min() < 0 || disc.Max() > 10 || tax.Min() < 0 || tax.Max() > 8 {
			t.Fatalf("disc/tax out of range")
		}
		for i := 0; i < seg.Rows(); i++ {
			if ship.Get(i) <= Q1CutoffDay {
				selected++
			}
			if rf.Get(i) == "N" {
				flagN++
			}
			if ls.Get(i) == "O" {
				statusO++
			}
		}
	}
	if qtyMin != 1 || qtyMax != 50 {
		t.Fatalf("quantity range [%d,%d]", qtyMin, qtyMax)
	}
	// Q1's filter keeps ~98% of rows (paper §6.3).
	selFrac := float64(selected) / 50000
	if selFrac < 0.96 || selFrac > 0.995 {
		t.Fatalf("Q1 selectivity %.3f, want ~0.98", selFrac)
	}
	// Roughly half the rows ship after CURRENTDATE → N and O dominate the
	// later half; dbgen yields ~50% N and ~50% O.
	if f := float64(flagN) / 50000; f < 0.40 || f > 0.60 {
		t.Fatalf("returnflag N fraction %.3f", f)
	}
	if f := float64(statusO) / 50000; f < 0.40 || f > 0.60 {
		t.Fatalf("linestatus O fraction %.3f", f)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t1, _ := Generate(GenOptions{Rows: 1000, Seed: 7, SegmentRows: 500})
	t2, _ := Generate(GenOptions{Rows: 1000, Seed: 7, SegmentRows: 500})
	s1, _ := t1.Segments()[0].IntCol(ColExtendedPrice)
	s2, _ := t2.Segments()[0].IntCol(ColExtendedPrice)
	for i := 0; i < 500; i++ {
		if s1.Get(i) != s2.Get(i) {
			t.Fatal("non-deterministic generation")
		}
	}
}

func TestQ1MatchesNaive(t *testing.T) {
	tbl, err := Generate(GenOptions{Rows: 60000, Seed: 3, SegmentRows: 16384})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunQ1(tbl, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunQ1Naive(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Rows) != len(slow.Rows) {
		t.Fatalf("rows %d vs %d", len(fast.Rows), len(slow.Rows))
	}
	// Q1 populates exactly four groups at the cutoff: (A,F), (N,F), (N,O),
	// (R,F) — N,F appears because receipt can trail CURRENTDATE while the
	// ship date precedes it.
	if len(fast.Rows) != 4 {
		t.Fatalf("groups=%d want 4", len(fast.Rows))
	}
	wantKeys := [][2]string{{"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}}
	for i, row := range fast.Rows {
		if row.Keys[0] != wantKeys[i][0] || row.Keys[1] != wantKeys[i][1] {
			t.Fatalf("row %d keys %v", i, row.Keys)
		}
		for a := range row.Stats {
			if row.Stats[a] != slow.Rows[i].Stats[a] {
				t.Fatalf("row %d agg %d: %+v vs %+v", i, a, row.Stats[a], slow.Rows[i].Stats[a])
			}
		}
	}
	// Average quantity should hover near 25.5 (uniform 1..50).
	if avg := fast.Rows[0].Avg(4); avg < 24 || avg > 27 {
		t.Fatalf("avg_qty=%v", avg)
	}
}

func TestQ1AllStrategyCombos(t *testing.T) {
	tbl, err := Generate(GenOptions{Rows: 30000, Seed: 9, SegmentRows: 8192})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunQ1Naive(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []sel.Method{sel.MethodGather, sel.MethodCompact, sel.MethodSpecialGroup} {
		for _, s := range []agg.Strategy{agg.StrategyScalar, agg.StrategySortBased, agg.StrategyMultiAggregate, agg.StrategyReduce} {
			got, err := RunQ1(tbl, engine.Options{ForceSelection: engine.ForceSel(m), ForceAggregation: engine.ForceAgg(s)})
			if err != nil {
				t.Fatalf("%v/%v: %v", m, s, err)
			}
			for i := range want.Rows {
				for a := range want.Rows[i].Stats {
					if got.Rows[i].Stats[a] != want.Rows[i].Stats[a] {
						t.Fatalf("%v/%v row %d agg %d mismatch", m, s, i, a)
					}
				}
			}
		}
	}
}

// Q1's eight aggregates read five distinct inputs — the averages reuse the
// sums — and segment metadata proves each into its narrowest word: quantity
// and discount stay bytes, price and disc_price (price × at most 100) fit
// 32 bits, only charge needs 64.
func TestQ1PlansFiveNarrowSumSlots(t *testing.T) {
	tbl, err := Generate(GenOptions{Rows: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := engine.Explain(tbl, Q1(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 4, 8, 1}
	for _, pl := range plans {
		if !reflect.DeepEqual(pl.SumWordSizes, want) {
			t.Errorf("segment %d: sum words %v, want %v", pl.Segment, pl.SumWordSizes, want)
		}
	}
}

// Q1's two products and avg(l_discount) come out of the multi-aggregate
// cell walk: its rows are keyed by (group, discount, tax), so the batch
// evaluates only quantity and price — the static profile's decode
// prediction is their two unpacks plus the key pass over the two 4-bit
// codes, and no operator pass — and the serving mix's Q1, which sums
// disc_price and the discount, keys its cells by the discount alone, the
// key pass one unpack.
func TestQ1WalksItsProducts(t *testing.T) {
	tbl, err := Generate(GenOptions{Rows: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prof := costmodel.Static()
	opts := engine.Options{CostProfile: prof}
	plans, err := engine.Explain(tbl, Q1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	width := func(name string) uint8 {
		col, err := tbl.Segments()[0].IntCol(name)
		if err != nil {
			t.Fatal(err)
		}
		return col.(*encoding.BitPackColumn).Width()
	}
	decode := prof.UnpackCyclesPerRow(width(ColQuantity)) + prof.UnpackCyclesPerRow(width(ColExtendedPrice)) +
		prof.CellKeyCyclesPerRow([]uint8{width(ColDiscount), width(ColTax)})
	if width(ColDiscount) != 4 || width(ColTax) != 4 {
		t.Fatalf("discount and tax are %d and %d bits, not the 4 the key's word-parallel body takes", width(ColDiscount), width(ColTax))
	}
	for _, pl := range plans {
		if want := []bool{false, false, true, true, true}; !reflect.DeepEqual(pl.WalkedSums, want) {
			t.Errorf("segment %d: walked sums %v, want %v", pl.Segment, pl.WalkedSums, want)
		}
		if want := []string{ColDiscount, ColTax}; !reflect.DeepEqual(pl.CellKey, want) {
			t.Errorf("segment %d: cell key %v, want %v", pl.Segment, pl.CellKey, want)
		}
		if math.Abs(pl.DecodeModelCyclesPerRow-decode) > 1e-9 {
			t.Errorf("segment %d: decode model %.3f cycles/row, two unpacks and the key pass are %.3f", pl.Segment, pl.DecodeModelCyclesPerRow, decode)
		}
		if pl.ModelCyclesPerRow != prof.CellWalkCyclesPerRow() {
			t.Errorf("segment %d: aggregate model %.3f cycles/row, the cell walk's is %.3f", pl.Segment, pl.ModelCyclesPerRow, prof.CellWalkCyclesPerRow())
		}
	}
	if !strings.Contains(engine.FormatPlans(plans), "1,4,4×,8×,1×") || !strings.Contains(engine.FormatPlans(plans), "cells:l_discount,l_tax") {
		t.Errorf("FormatPlans does not mark the walked sums and the key:\n%s", engine.FormatPlans(plans))
	}

	st, err := sql.Parse(loadgen.TPCHMix("lineitem")[0])
	if err != nil {
		t.Fatal(err)
	}
	if plans, err = engine.Explain(tbl, st.Query, opts); err != nil {
		t.Fatal(err)
	}
	for _, pl := range plans {
		if want := []bool{false, true, true}; pl.Strategy != "Multi" || !reflect.DeepEqual(pl.WalkedSums, want) || !reflect.DeepEqual(pl.CellKey, []string{ColDiscount}) {
			t.Errorf("serving-mix Q1 segment %d: %s, walked sums %v, key %v, want Multi %v keyed by %s", pl.Segment, pl.Strategy, pl.WalkedSums, pl.CellKey, want, ColDiscount)
		}
	}
}

// Q1 and the serving mix's Q1 walk their cells under every ablation, on
// one worker and on four, and under every forced selection method — gather
// and compaction compact the key with the group ids — and equal RunNaive
// each time. The table has several segments, the last one ragged, so
// batches of every alignment build their keys.
func TestQ1CellsMatchNaive(t *testing.T) {
	tbl, err := Generate(GenOptions{Rows: 40000 + 123, Seed: 11, SegmentRows: 16384})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sql.Parse(loadgen.TPCHMix("lineitem")[0])
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range []*engine.Query{Q1(), st.Query} {
		want, err := engine.RunNaive(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, ablation := range []engine.Options{{}, {DisableZoneMaps: true}, {DisablePackedFilter: true},
			{DisableRLEDomain: true}, {DisableDictDomain: true}, {DisableDeltaDomain: true}} {
			for _, m := range []*sel.Method{nil, engine.ForceSel(sel.MethodGather), engine.ForceSel(sel.MethodCompact), engine.ForceSel(sel.MethodSpecialGroup)} {
				for _, workers := range []int{1, 4} {
					opts := ablation
					opts.ForceSelection, opts.Parallelism = m, workers
					label := fmt.Sprintf("query %d %+v", qi, opts)
					p, err := engine.Prepare(tbl, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					plans, err := p.Explain()
					if err != nil {
						t.Fatal(err)
					}
					for _, pl := range plans {
						if pl.Strategy != "Multi" || pl.CellKey == nil {
							t.Fatalf("%s: segment %d plans %s keyed by %v, want a cell walk", label, pl.Segment, pl.Strategy, pl.CellKey)
						}
					}
					got, stats, err := p.RunTraced(context.Background(), nil)
					if err != nil {
						t.Fatal(err)
					}
					if m != nil && *m != sel.MethodSpecialGroup && stats.Gather+stats.Compact == 0 {
						t.Fatalf("%s: forced %v, the scan gathered and compacted nothing: %+v", label, *m, stats)
					}
					if !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Fatalf("%s: rows\n%+v\nwant\n%+v", label, got.Rows, want.Rows)
					}
				}
			}
		}
	}
}

// Every query without GROUP BY the benchmark runs plans the one-group
// reduction: filter_scan's four lineitem shapes (packed3 is the serving
// mix's Q6, dict_in its dict query), serve_light's count shape and the
// ingest check Explain as Reduce with no special group, and a traced scan
// of each maps no group id. The grouped plans, and one group with an
// extremum, keep the strategies they had; the mix's Q1 maps its ids in its
// filter pass, the extremum in the group-map phase.
func TestUngroupedPlansReduce(t *testing.T) {
	tbl, err := Generate(GenOptions{Rows: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mix := loadgen.TPCHMix("lineitem")
	var opts engine.Options
	// groupMap is whether the group-map phase runs: never under Reduce, and
	// not for the mix's Q1 either, whose filter pass maps its groups.
	// method, when set, is a selection method some batch must run: the
	// repository benchmark's filter_scan shapes gather at 25 % (its packed3,
	// the mix's Q6) and at 0.16 % (packed_lowsel), and sum under the mask —
	// a Reduce plan's special group — at 49 % (dict_in, the mix's dict
	// query). No Reduce plan compacts a batch. undecoded marks the two
	// gathering shapes, whose every batch gathers, every sum is a packed
	// column or a product of two, and so no batch runs the decode phase:
	// each gathered batch sums off the packed words.
	for _, tc := range []struct {
		sql, strategy string
		groupMap      bool
		method        string
		undecoded     bool
	}{
		{mix[1], "Reduce", false, "Gather", true},
		{"SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_shipdate <= 30", "Reduce", false, "Gather", true},
		{"SELECT count(*), sum(l_quantity) FROM lineitem WHERE l_orderkey >= 30000 AND l_orderkey < 30655", "Reduce", false, "", false},
		{mix[2], "Reduce", false, "SpecialGroup", false},
		{"SELECT count(*), sum(l_quantity) FROM lineitem WHERE l_shipdate <= 30", "Reduce", false, "", false},
		{"SELECT count(*), sum(l_quantity) FROM lineitem", "Reduce", false, "", false},
		{mix[0], "Multi", false, "", false},
		{"SELECT min(l_quantity), count(*) FROM lineitem WHERE l_shipdate <= 2436", "Scalar", true, "", false},
	} {
		st, err := sql.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := engine.Prepare(tbl, st.Query, opts)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := p.Explain()
		if err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, pl := range plans {
			if pl.Eliminated {
				continue
			}
			live++
			grouped := tc.strategy != "Reduce"
			if pl.Strategy != tc.strategy || pl.SpecialGroup != (grouped && st.Query.Filter != nil) {
				t.Errorf("%s: segment %d plans %s, special %v", tc.sql, pl.Segment, pl.Strategy, pl.SpecialGroup)
			}
		}
		if live == 0 {
			t.Fatalf("%s: every segment eliminated", tc.sql)
		}
		got, stats, err := p.RunTraced(context.Background(), obs.NewScanTrace(0))
		if err != nil {
			t.Fatal(err)
		}
		if calls := stats.Phases[obs.PhaseGroupMap].Calls; (calls > 0) != tc.groupMap {
			t.Errorf("%s: %d group-map calls", tc.sql, calls)
		}
		ran := map[string]int64{"Gather": stats.Gather, "Compact": stats.Compact, "SpecialGroup": stats.SpecialGroup}
		if tc.method != "" && ran[tc.method] == 0 || tc.strategy == "Reduce" && stats.Compact > 0 {
			t.Errorf("%s: batches ran %v", tc.sql, ran)
		}
		if tc.undecoded && (stats.Gather != stats.Batches || stats.Phases[obs.PhaseDecode].Calls > 0) {
			t.Errorf("%s: %d of %d batches gathered, %d decoded", tc.sql, stats.Gather, stats.Batches, stats.Phases[obs.PhaseDecode].Calls)
		}
		want, err := engine.RunNaive(tbl, st.Query)
		if err != nil {
			t.Fatal(err)
		}
		same := len(got.Rows) == len(want.Rows)
		for i := 0; same && i < len(got.Rows); i++ {
			same = slices.Equal(got.Rows[i].Keys, want.Rows[i].Keys) && slices.Equal(got.Rows[i].Stats, want.Rows[i].Stats)
		}
		if !same {
			t.Errorf("%s: %+v, RunNaive %+v", tc.sql, got.Rows, want.Rows)
		}
	}
	plans, err := engine.Explain(tbl, Q1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range plans {
		if pl.Strategy != "Multi" || !pl.SpecialGroup {
			t.Errorf("Q1 segment %d plans %s, special %v", pl.Segment, pl.Strategy, pl.SpecialGroup)
		}
	}
}

func TestTable5Published(t *testing.T) {
	rows := Table5()
	if len(rows) != 11 {
		t.Fatalf("len=%d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.ClocksPerRow != 8.6 || last.Cores != 4 {
		t.Fatalf("paper row: %+v", last)
	}
	for _, r := range rows {
		if r.ClocksPerRow <= 0 || r.Cores <= 0 || r.ClockGHz <= 0 {
			t.Fatalf("invalid row %+v", r)
		}
	}
}
