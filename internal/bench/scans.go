package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/engine"
	"bipie/internal/expr"
	"bipie/internal/perfstat"
	"bipie/internal/sel"
	"bipie/internal/table"
	"bipie/internal/tpch"
	"bipie/internal/workload"
)

// table5 runs TPC-H Q1 end to end on the BIPie engine and on the
// row-at-a-time baseline, normalizes both to clocks/row as the paper does
// (time × clock × cores ÷ rows) and appends them to the published rows.
func table5(s Sizes) (*Table, error) {
	rows := s.Q1Rows
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: rows, Seed: 1})
	if err != nil {
		return nil, err
	}
	scan, _, err := measureScan(tbl, tpch.Q1(), engine.Options{}, rows)
	if err != nil {
		return nil, err
	}
	naive := measure(rows, func() {
		if _, nerr := tpch.RunQ1Naive(tbl); nerr != nil {
			err = nerr
		}
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("TPC-H Query 1 comparison (%d rows measured)", rows),
		Head:  []string{"engine", "SF", "cores", "clock GHz", "time ms", "clocks/row", "published"},
	}
	for _, r := range tpch.Table5() {
		t.add(r.Engine, r.ScaleFactor, r.Cores, r.ClockGHz, r.TimeSec*1e3, r.ClocksPerRow, r.Published)
	}
	// Nominal scale factor for display: SF1 = 6M lineitems, at least 1.
	sf := max(1, (rows+3_000_000)/6_000_000)
	cores, hz := runtime.GOMAXPROCS(0), perfstat.Hz()
	for _, m := range []struct {
		engine string
		cycles float64 // wall-clock cycles per row
	}{{"This repo (Go/SWAR BIPie)", scan}, {"This repo (naive row-at-a-time)", naive}} {
		t.add(m.engine, sf, cores, hz/1e9, m.cycles*float64(rows)/hz*1e3, m.cycles*float64(cores), "measured now")
	}
	return t, nil
}

// gridCell is one (sums, selectivity) cell of a strategy grid: every
// selection × aggregation combination's cost per row per sum, and the
// cheapest, labelled "<aggregation> + <selection>" as the paper's cells are.
type gridCell struct {
	sums   int
	selPct int
	best   string
	all    map[string]float64
}

var (
	gridSelections = []sel.Method{sel.MethodGather, sel.MethodCompact, sel.MethodSpecialGroup}
	gridStrategies = []agg.Strategy{agg.StrategySortBased, agg.StrategyInRegister, agg.StrategyMultiAggregate}
	gridSelPcts    = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
)

// gridCells measures one strategy grid the way the paper's Figures 8–10 are
// built: for every number of sums (1–5) and selectivity (10%–100%), all
// nine combinations forced end to end through the engine.
func gridCells(groups int, aggBits uint8, rows int) ([]gridCell, error) {
	tbl, err := workload.BuildTable(workload.TableSpec{Rows: rows, Groups: groups, AggBits: aggBits, NumAggs: 5, Seed: 11, FilterDomain: 1000})
	if err != nil {
		return nil, err
	}
	var cells []gridCell
	for sums := 1; sums <= 5; sums++ {
		q := &engine.Query{GroupBy: []string{"g"}}
		for c := 0; c < sums; c++ {
			q.Aggregates = append(q.Aggregates, engine.SumOf(expr.Col(workload.AggName(c))))
		}
		for _, selPct := range gridSelPcts {
			q.Filter = nil
			if selPct < 100 {
				q.Filter = expr.Lt(expr.Col("f"), expr.Int(int64(selPct)*10))
			}
			cell := gridCell{sums: sums, selPct: selPct, all: make(map[string]float64)}
			for _, st := range gridStrategies {
				if st == agg.StrategyInRegister && !agg.InRegisterSupported(groups+1, bitpack.WordBytes(aggBits)) {
					continue
				}
				for _, sm := range gridSelections {
					opts := engine.Options{ForceAggregation: engine.ForceAgg(st)}
					label := st.String()
					if selPct < 100 {
						opts.ForceSelection = engine.ForceSel(sm)
						label += " + " + sm.String()
					} else if _, done := cell.all[label]; done {
						// No filter, no selection step: each aggregation
						// strategy is measured once.
						continue
					}
					c, _, err := measureScan(tbl, q, opts, rows)
					if err != nil {
						return nil, fmt.Errorf("sums=%d sel=%d%% %s: %w", sums, selPct, label, err)
					}
					cell.all[label] = c / float64(sums)
					if cell.best == "" || cell.all[label] < cell.all[cell.best] {
						cell.best = label
					}
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// gridAbbrev shortens the strategy names to fit a grid column.
var gridAbbrev = map[string]string{
	"Sort": "So", "Register": "Re", "Multi": "Mu", "Gather": "Ga", "Compact": "Co", "Special Group": "Sp",
}

// grid is the experiment over gridCells, laid out as the paper's figures
// are: one block per sum count, one column per selectivity, the winner's
// cost above its label.
func grid(groups int, aggBits uint8) func(Sizes) (*Table, error) {
	return func(s Sizes) (*Table, error) {
		cells, err := gridCells(groups, aggBits, s.GridRows)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: fmt.Sprintf("best-strategy grid, %d groups, %d-bit encoding (cycles/row/sum)", groups, aggBits),
			Head:  []string{"sums"},
			Note:  "So/Re/Mu = Sort/Register/Multi aggregation; Ga/Co/Sp = Gather/Compact/Special Group selection",
		}
		for _, p := range gridSelPcts {
			t.Head = append(t.Head, fmt.Sprintf("%d%%", p))
		}
		for i := 0; i < len(cells); i += len(gridSelPcts) {
			costs, labels := []any{cells[i].sums}, []any{""}
			for _, c := range cells[i : i+len(gridSelPcts)] {
				costs = append(costs, c.all[c.best])
				strategy, selection, filtered := strings.Cut(c.best, " + ")
				label := gridAbbrev[strategy]
				if filtered {
					label += "+" + gridAbbrev[selection]
				}
				labels = append(labels, label)
			}
			t.add(costs...)
			t.add(labels...)
		}
		return t, nil
	}
}

// scanTable builds a one-segment table of rows rows from generated columns.
func scanTable(rows int, ints map[string][]int64, strs map[string][]string) (*table.Table, error) {
	var schema table.Schema
	for name := range strs {
		schema = append(schema, table.Column{Name: name, Type: table.String})
	}
	for name := range ints {
		schema = append(schema, table.Column{Name: name, Type: table.Int64})
	}
	tbl, err := table.New(schema, table.WithSegmentRows(rows))
	if err != nil {
		return nil, err
	}
	if err := tbl.AppendColumns(ints, strs); err != nil {
		return nil, err
	}
	tbl.Flush()
	return tbl, nil
}

// variant is one engine configuration of an ablation.
type variant struct {
	name string
	q    *engine.Query
	opts engine.Options
}

// ablation measures each variant's scan of tbl into a two-column table.
func ablation(title, head string, tbl *table.Table, rows int, variants []variant) (*Table, error) {
	t := &Table{Title: title + " (cycles/row)", Head: []string{head, "this repo"}}
	for _, v := range variants {
		c, _, err := measureScan(tbl, v.q, v.opts, rows)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		t.add(v.name, c)
	}
	return t, nil
}

// ablSpecialGroup contrasts special-group fusion with compact- and
// gather-then-aggregate at 90% selectivity — the §4.3 motivation.
func ablSpecialGroup(s Sizes) (*Table, error) {
	tbl, err := workload.BuildTable(workload.TableSpec{Rows: s.Rows, Groups: 8, AggBits: 7, NumAggs: 2, Seed: 14})
	if err != nil {
		return nil, err
	}
	q := &engine.Query{
		GroupBy:    []string{"g"},
		Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("agg0")), engine.SumOf(expr.Col("agg1"))},
		Filter:     expr.Lt(expr.Col("f"), expr.Int(900)),
	}
	var vs []variant
	for _, m := range []sel.Method{sel.MethodSpecialGroup, sel.MethodCompact, sel.MethodGather} {
		vs = append(vs, variant{m.String(), q, engine.Options{ForceSelection: engine.ForceSel(m)}})
	}
	return ablation("selection method at 90% selectivity", "selection", tbl, s.Rows, vs)
}

// ablPushdown contrasts a pushed col-vs-constant filter (evaluated on
// encoded offsets) against the same predicate phrased as arithmetic the
// pushdown cannot split: f+0 < 500 is not a bare column, so it stays a
// residual (decode-then-compare) leaf.
func ablPushdown(s Sizes) (*Table, error) {
	tbl, err := workload.BuildTable(workload.TableSpec{Rows: s.Rows, Groups: 8, AggBits: 7, NumAggs: 1, Seed: 16})
	if err != nil {
		return nil, err
	}
	query := func(lhs expr.Expr) *engine.Query {
		return &engine.Query{
			GroupBy:    []string{"g"},
			Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("agg0"))},
			Filter:     expr.Lt(lhs, expr.Int(500)),
		}
	}
	return ablation("filter f < 500 at 50% selectivity", "filter path", tbl, s.Rows, []variant{
		{"pushed, encoded domain", query(expr.Col("f")), engine.Options{}},
		{"residual, decoded", query(expr.Add(expr.Col("f"), expr.Int(0))), engine.Options{}},
	})
}

// ablRLERunSum contrasts run-granularity summation of an RLE column against
// the decoded per-row path (a forced scalar strategy disables the run
// shortcut).
func ablRLERunSum(s Sizes) (*Table, error) {
	rate := make([]int64, s.Rows)
	for i := range rate {
		rate[i] = int64(i / 4096) // long runs, so ChooseInt picks RLE
	}
	tbl, err := scanTable(s.Rows, map[string][]int64{"rate": rate}, nil)
	if err != nil {
		return nil, err
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{engine.SumOf(expr.Col("rate"))}}
	return ablation("SUM over an RLE column", "summation", tbl, s.Rows, []variant{
		{"run level", q, engine.Options{}},
		{"decoded rows", q, engine.Options{ForceAggregation: engine.ForceAgg(agg.StrategyScalar)}},
	})
}

// sweepPcts are the selectivities of the encoded-domain sweeps, in percent.
var sweepPcts = []float64{0.1, 1, 10, 50, 99}

func pct(p float64) string { return fmt.Sprintf("%g%%", p) }

// onOff times q under the engine's defaults and with off's switches thrown.
// The default scan must have taken the encoded path the sweep names —
// engaged reads that off its stats — or the sweep would be measuring
// something else (ChooseInt moving a column to another encoding, say).
func onOff(tbl *table.Table, q *engine.Query, off engine.Options, rows int, engaged func(engine.ScanStats) bool) (onC, offC float64, st engine.ScanStats, err error) {
	if onC, st, err = measureScan(tbl, q, engine.Options{}, rows); err != nil {
		return
	}
	if !engaged(st) {
		return 0, 0, st, fmt.Errorf("the scan left the encoded path this sweep measures: %+v", st)
	}
	offC, _, err = measureScan(tbl, q, off, rows)
	return
}

// sweepPacked runs the pushed predicate `col < sel·rows` with the
// packed-domain machinery on and off (zone maps and packed compare
// disabled: the pre-packed-kernel configuration) on two filter columns over
// the same value domain but opposite batch structure:
//
//   - "ts": batch-shuffled clusters. Batch z holds perm[z]·4096 + 12-bit
//     noise, so every batch covers a narrow disjoint slice of the domain in
//     arbitrary order — the shape of multi-source ingest. Zone maps resolve
//     `ts < t` to all/none for almost every batch, and the batch boundary
//     jumps keep delta encoding dearer than plain bit packing, so ChooseInt
//     leaves the column on the packed path.
//   - "u": the same domain scattered uniformly. Zone maps can never skip,
//     isolating the packed-compare kernel's contribution.
func sweepPacked(s Sizes) (*Table, error) {
	const batch = 4096
	perm := rand.New(rand.NewSource(99)).Perm((s.Rows + batch - 1) / batch)
	ts, u, agg0 := make([]int64, s.Rows), make([]int64, s.Rows), make([]int64, s.Rows)
	groups := make([]string, s.Rows)
	for i := range ts {
		h := uint32(i) * 2654435761
		ts[i] = int64(perm[i/batch])*batch + int64(h%batch)
		u[i] = int64(h % uint32(s.Rows))
		agg0[i] = int64(h % 128)
		groups[i] = fmt.Sprintf("k%d", i%8)
	}
	tbl, err := scanTable(s.Rows, map[string][]int64{"ts": ts, "u": u, "agg0": agg0}, map[string][]string{"g": groups})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "pushed `col < sel·rows`, packed compare + zone maps on vs off (cycles/row)",
		Head:  []string{"col", "sel", "on", "off", "batches skipped", "packed batches"},
	}
	for _, col := range []string{"ts", "u"} {
		for _, selPct := range sweepPcts {
			q := &engine.Query{
				GroupBy:    []string{"g"},
				Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("agg0"))},
				Filter:     expr.Lt(expr.Col(col), expr.Int(int64(selPct/100*float64(s.Rows)))),
			}
			on, off, st, err := onOff(tbl, q, engine.Options{DisableZoneMaps: true, DisablePackedFilter: true}, s.Rows,
				func(st engine.ScanStats) bool { return st.PackedKernelBatches+st.BatchesSkipped > 0 })
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", col, err)
			}
			t.add(col, pct(selPct), on, off, int(st.BatchesSkipped), int(st.PackedKernelBatches))
		}
	}
	return t, nil
}

// sweepRLE measures the fully encoded span pipeline: a filter and sum over
// one RLE column with a single group resolve at run granularity (CmpSpans +
// SumSpans), never materializing a row. With the RLE domain disabled the
// same query decodes every run and filters row by row. Runs are 512 rows
// with scattered values, so zone maps cannot skip and the difference is the
// run-domain machinery alone.
func sweepRLE(s Sizes) (*Table, error) {
	rate := make([]int64, s.Rows)
	for i := range rate {
		rate[i] = int64(uint32(i/512) * 2654435761 % 1000)
	}
	tbl, err := scanTable(s.Rows, map[string][]int64{"rate": rate}, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "`rate < sel·1000` + SUM(rate) over an RLE column, run domain on vs off (cycles/row)",
		Head:  []string{"sel", "on", "off", "span batches", "rows not decoded"},
	}
	for _, selPct := range sweepPcts {
		q := &engine.Query{
			Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("rate"))},
			Filter:     expr.Lt(expr.Col("rate"), expr.Int(int64(selPct*10))),
		}
		on, off, st, err := onOff(tbl, q, engine.Options{DisableRLEDomain: true}, s.Rows,
			func(st engine.ScanStats) bool { return st.RunSpanBatches > 0 })
		if err != nil {
			return nil, err
		}
		t.add(pct(selPct), on, off, int(st.RunSpanBatches), int(st.RunSkippedRows))
	}
	return t, nil
}

// sweepDict measures string predicates evaluated in dictionary-code space:
// an equality collapses to one packed compare over the id vector, a set of
// non-contiguous ids (every 7th value) to a 256-entry bitmap over unpacked
// ids. With the dictionary domain disabled both fall back to the residual
// predicate's membership leaf.
func sweepDict(s Sizes) (*Table, error) {
	g, a := make([]string, s.Rows), make([]int64, s.Rows)
	for i := range g {
		h := uint32(i) * 2654435761
		g[i] = fmt.Sprintf("v%02d", h%64)
		a[i] = int64(h % 128)
	}
	tbl, err := scanTable(s.Rows, map[string][]int64{"a": a}, map[string][]string{"g": g})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "string predicate over 64 dictionary codes, dictionary domain on vs off (cycles/row)",
		Head:  []string{"predicate", "on", "off", "dict batches"},
	}
	for _, p := range []struct {
		name string
		pred expr.Pred
	}{
		{"g = 'v17'", expr.StrEq("g", "v17")},
		{"g IN (8 values)", expr.StrInSet("g", "v00", "v07", "v14", "v21", "v28", "v35", "v42", "v49")},
	} {
		q := &engine.Query{Aggregates: []engine.Aggregate{engine.CountStar(), engine.SumOf(expr.Col("a"))}, Filter: p.pred}
		on, off, st, err := onOff(tbl, q, engine.Options{DisableDictDomain: true}, s.Rows,
			func(st engine.ScanStats) bool { return st.DictFilterBatches > 0 })
		if err != nil {
			return nil, err
		}
		t.add(p.name, on, off, int(st.DictFilterBatches))
	}
	return t, nil
}
