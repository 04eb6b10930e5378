// Package bench is the single implementation of the paper's evaluation
// (§6): a registry of named experiments — every table and figure, the
// ablations of the design choices DESIGN.md calls out, and the
// encoded-domain filter sweeps. Each experiment returns one Table;
// cmd/bipie-bench looks experiments up here, renders whatever comes back
// and builds its usage text from the same list.
//
// Measurements are reported in the paper's unit — CPU cycles per row (and
// per sum where the paper divides by aggregate count) — via the calibrated
// converter in internal/perfstat. Absolute values are expected to sit above
// the paper's AVX2 numbers by roughly the SWAR lane-width ratio; the
// comparisons that must hold are the relative ones: orderings, crossover
// locations, and amortization trends.
package bench

import (
	"context"
	"time"

	"bipie/internal/engine"
	"bipie/internal/perfstat"
	"bipie/internal/table"
)

// Table is what every experiment returns. A float64 cell is a measurement
// (or the paper's figure beside it), an int cell a parameter or a scan
// counter, a string cell a label; an empty row separates blocks.
type Table struct {
	Title string
	Head  []string
	Rows  [][]any
	Note  string // the paper's own reading, printed under the table
}

func (t *Table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

// Sizes are the input sizes an experiment may draw on.
type Sizes struct {
	Rows     int // kernel experiments, ablations and sweeps
	GridRows int // the fig8–10 strategy grids
	Q1Rows   int // lineitem rows of table5
}

// DefaultSizes spills the last-level cache as the paper requires while
// keeping a full harness run interactive.
var DefaultSizes = Sizes{Rows: 1 << 22, GridRows: 1 << 20, Q1Rows: 4 << 20}

// Experiment is one registered entry of the evaluation.
type Experiment struct {
	ID   string
	What string // one line: the paper artifact or the design choice measured
	Run  func(Sizes) (*Table, error)
}

// Experiments lists the registry in the order `bipie-bench all` runs it.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: gather selection at bit widths 5/10/20", table1},
		{"table2", "Table 2: sort-based SUM, groups {4,8,16} x sums {1,2,4}", table2},
		{"table3", "Table 3: in-register ops per group per 32 values (analytic)", table3},
		{"table4", "Table 4: multi-aggregate SUM size mixes at 32 groups", table4},
		{"table5", "Table 5: TPC-H Q1 against the published engines", table5},
		{"fig2", "Figure 2: scalar COUNT vs groups, single vs multi array", fig2},
		{"fig3", "Figure 3: scalar SUM layouts at 32 groups, 1-5 sums", fig3},
		{"fig5", "Figure 5: in-register aggregation vs groups", fig5},
		{"fig7", "Figure 7: gather vs compact over selectivity, and the filter kernels", fig7},
		{"fig8", "Figure 8: best-strategy grid, 8 groups / 7-bit", grid(8, 7)},
		{"fig9", "Figure 9: best-strategy grid, 12 groups / 14-bit", grid(12, 14)},
		{"fig10", "Figure 10: best-strategy grid, 32 groups / 28-bit", grid(32, 28)},
		{"compaction", "§4.1: the compacting operator on one cache-resident batch", compaction},
		{"abl-smallest-word", "ablation: unpack to the smallest word vs always uint64", ablSmallestWord},
		{"abl-dual-counters", "ablation: even/odd bucket counters vs one per bucket", ablDualCounters},
		{"abl-skew", "ablation: scalar COUNT under Zipf-skewed groups", ablSkew},
		{"abl-special-group", "ablation: special-group fusion vs compact vs gather at 90%", ablSpecialGroup},
		{"abl-pushdown", "ablation: encoded filter pushdown vs the residual path", ablPushdown},
		{"abl-rle-runsum", "ablation: run-level RLE summation vs decoded rows", ablRLERunSum},
		{"sweep-packed", "sweep: packed compare and zone maps over selectivity", sweepPacked},
		{"sweep-rle", "sweep: RLE span pipeline over selectivity", sweepRLE},
		{"sweep-dict", "sweep: string predicates in dictionary-code space", sweepDict},
	}
}

// minMeasure is the minimum accumulated time per measured point; the
// package's tests shorten it.
var minMeasure = 30 * time.Millisecond

// measure times fn over rows and reports cycles/row.
func measure(rows int, fn func()) float64 {
	return perfstat.Time(rows, minMeasure, fn).CyclesPerRow()
}

// measureScan is the one engine-timing helper: it prepares q once and
// times Prepared.Run, so the figure is the scan and not planning, pool
// construction or exec-state allocation. The stats are those of one
// untimed run, for the experiments that check which path a scan took.
func measureScan(tbl *table.Table, q *engine.Query, opts engine.Options, rows int) (float64, engine.ScanStats, error) {
	p, err := engine.Prepare(tbl, q, opts)
	if err != nil {
		return 0, engine.ScanStats{}, err
	}
	ctx := context.Background()
	_, st, err := p.RunTraced(ctx, nil)
	if err != nil {
		return 0, st, err
	}
	c := measure(rows, func() {
		if _, rerr := p.Run(ctx); rerr != nil {
			err = rerr
		}
	})
	return c, st, err
}
