// Command bipie-bench regenerates every table and figure of the paper's
// evaluation section (§6). Run with an experiment id, or "all":
//
//	bipie-bench [-rows N] [-gridrows N] [-q1rows N] table1|table2|table3|table4|table5|fig2|fig3|fig5|fig7|fig8|fig9|fig10|compaction|all
//
// The calibrate subcommand fits the cost model instead of running an
// experiment: it probes the hot kernels, prints the fitted profile JSON to
// stdout, and writes it to this machine's cache file so every later bipie
// process starts from the fresh fit.
//
// The serve subcommand benchmarks the query-serving layer instead: it
// fires thousands of concurrent mixed queries (via internal/loadgen) at an
// in-process server — or a running one via -url — and reports p50/p99
// latency and scans/sec; see runServe.
//
// Output includes the paper's measured values next to this repository's,
// so the shape comparison (orderings, crossovers, amortization) is visible
// directly. Absolute cycles/row are expected to be higher here: the SWAR
// kernels drive 8 lanes per operation where AVX2 drives 32.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"bipie/internal/bench"
	"bipie/internal/costmodel"
	"bipie/internal/perfstat"
)

func main() {
	rows := flag.Int("rows", bench.DefaultRows, "input rows for kernel experiments")
	gridRows := flag.Int("gridrows", 1<<20, "input rows for the fig8-10 strategy grids")
	q1Rows := flag.Int("q1rows", 4<<20, "lineitem rows for the table5 Q1 run")
	flag.Parse()
	// The serve subcommand takes its own flags after the subcommand word,
	// so it dispatches before the single-argument check.
	if flag.NArg() > 0 && flag.Arg(0) == "serve" {
		runServe(flag.Args()[1:])
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bipie-bench [flags] <experiment|all|calibrate|serve>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	which := flag.Arg(0)
	if which == "calibrate" {
		runCalibrate()
		return
	}
	fmt.Printf("calibrated CPU frequency: %.2f GHz\n\n", perfstat.Hz()/1e9)

	experiments := []struct {
		name string
		run  func()
	}{
		{"table1", func() { printTable1(*rows) }},
		{"table2", func() { printTable2(*rows) }},
		{"table3", printTable3},
		{"table4", func() { printTable4(*rows) }},
		{"table5", func() { printTable5(*q1Rows) }},
		{"fig2", func() { printFig2(*rows) }},
		{"fig3", func() { printFig3(*rows) }},
		{"fig5", func() { printFig5(*rows) }},
		{"fig7", func() { printFig7(*rows) }},
		{"fig8", func() { printGrid(bench.Fig8Spec, *gridRows) }},
		{"fig9", func() { printGrid(bench.Fig9Spec, *gridRows) }},
		{"fig10", func() { printGrid(bench.Fig10Spec, *gridRows) }},
		{"compaction", printCompaction},
	}
	ran := false
	for _, e := range experiments {
		if which == "all" || which == e.name {
			e.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
}

// runCalibrate fits a fresh cost profile, prints it, and caches it for
// this machine's signature so later processes skip the probes.
func runCalibrate() {
	p := costmodel.Calibrate()
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", data)
	path, err := costmodel.CachePath(p.Machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate: no cache directory:", err)
		os.Exit(1)
	}
	if err := p.Save(path); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate: cache write failed:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "calibrate: wrote %s\n", path)
}

func printTable1(rows int) {
	fmt.Println("== Table 1: Gather Selection Performance (cycles/row) ==")
	fmt.Printf("%-10s %-12s %-12s\n", "bits", "this repo", "paper")
	for _, r := range bench.Table1(rows) {
		fmt.Printf("%-10d %-12.2f %-12.2f\n", r.BitWidth, r.CyclesPerRow, r.PaperCycles)
	}
	fmt.Println()
}

func printTable2(rows int) {
	fmt.Println("== Table 2: Sort-Based SUM Aggregation (cycles/row/sum) ==")
	fmt.Printf("%-10s %-6s %-12s %-12s\n", "groups", "sums", "this repo", "paper")
	for _, r := range bench.Table2(rows) {
		fmt.Printf("%-10d %-6d %-12.2f %-12.2f\n", r.Groups, r.Sums, r.CyclesPerRowSum, r.PaperCycles)
	}
	fmt.Println()
}

func printTable3() {
	fmt.Println("== Table 3: In-Register ops per group per 32 values ==")
	fmt.Printf("%-10s %-8s %-16s %-18s\n", "variant", "input", "SWAR ops (repo)", "AVX2 instrs (paper)")
	for _, r := range bench.Table3() {
		in := "-"
		if r.InputBytes > 0 {
			in = fmt.Sprintf("%dB", r.InputBytes)
		}
		fmt.Printf("%-10s %-8s %-16d %-18.1f\n", r.Variant, in, r.SwarOps, r.PaperInstrs)
	}
	fmt.Println()
}

func printTable4(rows int) {
	fmt.Println("== Table 4: Multi-Aggregate SUM (cycles/row/sum), 32 groups ==")
	fmt.Printf("%-16s %-6s %-10s %-12s %-12s\n", "sizes (bytes)", "sums", "row words", "this repo", "paper")
	for _, r := range bench.Table4(rows) {
		sizes := make([]string, len(r.Sizes))
		for i, s := range r.Sizes {
			sizes[i] = fmt.Sprint(s)
		}
		fmt.Printf("%-16s %-6d %-10d %-12.2f %-12.2f\n", strings.Join(sizes, "-"), len(r.Sizes), r.RowWords, r.CyclesPerRowSum, r.PaperCycles)
	}
	fmt.Println()
}

func printTable5(rows int) {
	fmt.Printf("== Table 5: TPC-H Query 1 comparison (%d rows) ==\n", rows)
	fmt.Printf("%-32s %-5s %-7s %-7s %-9s %-12s %s\n", "engine", "SF", "cores", "clock", "time[s]", "clocks/row", "published")
	for _, r := range bench.Table5(rows) {
		marker := ""
		if r.Measured {
			marker = "  <- measured"
		}
		fmt.Printf("%-32s %-5d %-7d %-7.2f %-9.3f %-12.1f %s%s\n",
			r.Engine, r.ScaleFactor, r.Cores, r.ClockGHz, r.TimeSec, r.ClocksPerRow, r.Published, marker)
	}
	fmt.Println()
}

func printFig2(rows int) {
	fmt.Println("== Figure 2: scalar COUNT cycles/row vs groups ==")
	fmt.Printf("%-8s %-14s %-14s\n", "groups", "single array", "multi array")
	for _, r := range bench.Fig2(rows) {
		fmt.Printf("%-8d %-14.2f %-14.2f\n", r.Groups, r.SingleArray, r.MultiArray)
	}
	fmt.Println("(paper: 2.9 cycles/row at 2 groups vs 1.65 at 6+; multi-array flattens the curve)")
	fmt.Println()
}

func printFig3(rows int) {
	fmt.Println("== Figure 3: scalar SUM layouts, 32 groups (cycles/row/sum) ==")
	fmt.Printf("%-6s %-16s %-14s %-14s\n", "sums", "column-at-time", "row-at-time", "row unrolled")
	for _, r := range bench.Fig3(rows) {
		fmt.Printf("%-6d %-16.2f %-14.2f %-14.2f\n", r.Sums, r.ColumnAtATime, r.RowAtATime, r.RowUnrolled)
	}
	fmt.Println()
}

func printFig5(rows int) {
	fmt.Println("== Figure 5: In-Register aggregation cycles/row vs groups ==")
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s %-12s\n", "groups", "count", "sum 1B", "sum 2B", "sum 4B", "scalar cnt")
	for _, r := range bench.Fig5(rows) {
		fmt.Printf("%-8d %-10.2f %-10.2f %-10.2f %-10.2f %-12.2f\n", r.Groups, r.Count, r.Sum1B, r.Sum2B, r.Sum4B, r.ScalarCount)
	}
	fmt.Println()
}

func printFig7(rows int) {
	fmt.Println("== Figure 7: selection strategies, cycles/row (gather vs compact) ==")
	fmt.Printf("%-6s %-8s %-10s %-10s %-8s %-12s %-12s\n", "bits", "sel", "gather", "compact", "best", "flt packed", "flt unpack")
	lastWidth := uint8(0)
	for _, r := range bench.Fig7(rows) {
		if r.BitWidth != lastWidth && lastWidth != 0 {
			fmt.Println()
		}
		lastWidth = r.BitWidth
		fmt.Printf("%-6d %-8.2f %-10.2f %-10.2f %-8s %-12.2f %-12.2f\n",
			r.BitWidth, r.Selectivity, r.Gather, r.Compact, r.Best, r.FilterPacked, r.FilterUnpack)
	}
	fmt.Println("(paper crossovers: 2% at 4 bits, 38% at 21 bits)")
	fmt.Println()
}

func printGrid(spec bench.GridSpec, rows int) {
	fmt.Printf("== Figure %s: best strategy grid, %d groups, %d-bit encoding (cycles/row/sum) ==\n",
		strings.TrimPrefix(spec.Name, "fig"), spec.Groups, spec.AggBits)
	cells, err := bench.Grid(spec, rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grid failed:", err)
		os.Exit(1)
	}
	// Render as the paper lays it out: one row per sum count, one column
	// per selectivity.
	bySums := map[int][]bench.GridCell{}
	for _, c := range cells {
		bySums[c.Sums] = append(bySums[c.Sums], c)
	}
	var sums []int
	for s := range bySums {
		sums = append(sums, s)
	}
	sort.Ints(sums)
	fmt.Printf("%-5s", "")
	for _, selPct := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		fmt.Printf("%8d%%", selPct)
	}
	fmt.Println()
	for _, s := range sums {
		row := bySums[s]
		sort.Slice(row, func(i, j int) bool { return row[i].Selectivity < row[j].Selectivity })
		fmt.Printf("%dx   ", s)
		for _, c := range row {
			fmt.Printf("%9.2f", c.CyclesPerRowSum)
		}
		fmt.Println()
		fmt.Printf("     ")
		for _, c := range row {
			fmt.Printf("%9s", abbreviate(c.Best))
		}
		fmt.Println()
	}
	fmt.Println()
}

// abbreviate shortens a combination label to fit grid columns: first letter
// of the aggregation and of the selection method.
func abbreviate(label string) string {
	parts := strings.Split(label, " + ")
	if len(parts) == 1 {
		return shortName(parts[0])
	}
	return shortName(parts[0]) + "+" + shortName(parts[1])
}

func shortName(s string) string {
	switch s {
	case "Sort":
		return "So"
	case "Register":
		return "Re"
	case "Multi":
		return "Mu"
	case "Gather":
		return "Ga"
	case "Compact":
		return "Co"
	case "Special Group":
		return "Sp"
	default:
		return s
	}
}

func printCompaction() {
	fmt.Println("== Compacting operator (paper §4.1: 0.4-0.6 cycles/row in cache) ==")
	for _, r := range bench.Compaction() {
		fmt.Printf("%-14s %.2f cycles/row\n", r.Mode, r.CyclesPerRow)
	}
	fmt.Println()
}
