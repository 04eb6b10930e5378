// Command bipie-bench runs the paper's evaluation (§6): every table and
// figure, the ablations and the encoded-domain sweeps registered in
// internal/bench. Run it with an experiment id, or "all"; -h lists the ids.
//
//	bipie-bench [-rows N] [-gridrows N] [-q1rows N] <experiment|all>
//
// The calibrate subcommand fits the cost model instead of running an
// experiment: it probes the hot kernels and prints the fitted profile JSON
// to stdout. `make calibrate` checks that output in as
// internal/costmodel/profile.json, the profile every process plans with.
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
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"bipie/internal/bench"
	"bipie/internal/costmodel"
	"bipie/internal/perfstat"
)

func main() {
	sizes := bench.DefaultSizes
	flag.IntVar(&sizes.Rows, "rows", sizes.Rows, "input rows for kernel experiments, ablations and sweeps")
	flag.IntVar(&sizes.GridRows, "gridrows", sizes.GridRows, "input rows for the fig8-10 strategy grids")
	flag.IntVar(&sizes.Q1Rows, "q1rows", sizes.Q1Rows, "lineitem rows for the table5 Q1 run")
	flag.Usage = func() { usage(flag.CommandLine.Output()); flag.PrintDefaults() }
	flag.Parse()
	// The serve subcommand takes its own flags after the subcommand word,
	// so it dispatches before the single-argument check.
	if flag.NArg() > 0 && flag.Arg(0) == "serve" {
		runServe(flag.Args()[1:])
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	which := flag.Arg(0)
	if which == "calibrate" {
		runCalibrate()
		return
	}
	var todo []bench.Experiment
	for _, e := range bench.Experiments() {
		if which == "all" || which == e.ID {
			todo = append(todo, e)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("calibrated CPU frequency: %.2f GHz\n\n", perfstat.Hz()/1e9)
	for _, e := range todo {
		t, err := e.Run(sizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		render(os.Stdout, e.ID, t)
	}
}

// usage lists what the command accepts; the experiment ids come from the
// registry.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: bipie-bench [flags] <experiment|all|calibrate|serve>")
	fmt.Fprintln(w, "experiments:")
	for _, e := range bench.Experiments() {
		fmt.Fprintf(w, "  %-18s %s\n", e.ID, e.What)
	}
	fmt.Fprintln(w, "flags:")
}

// render prints one experiment's table: columns left-aligned at the width
// of their widest cell, measurements to two decimals, an empty row as a
// blank line.
func render(w io.Writer, id string, t *bench.Table) {
	rows := [][]string{t.Head}
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			if f, ok := c.(float64); ok {
				cells[i] = strconv.FormatFloat(f, 'f', 2, 64)
			} else {
				cells[i] = fmt.Sprint(c)
			}
		}
		rows = append(rows, cells)
	}
	width := make([]int, len(t.Head))
	for _, r := range rows {
		for i, c := range r {
			width[i] = max(width[i], utf8.RuneCountInString(c))
		}
	}
	fmt.Fprintf(w, "== %s: %s ==\n", id, t.Title)
	for _, r := range rows {
		var line strings.Builder
		for i, c := range r {
			line.WriteString(c)
			line.WriteString(strings.Repeat(" ", width[i]-utf8.RuneCountInString(c)+2))
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
	if t.Note != "" {
		fmt.Fprintf(w, "(%s)\n", t.Note)
	}
	fmt.Fprintln(w)
}

// runCalibrate fits a fresh cost profile and prints it.
func runCalibrate() {
	data, err := json.MarshalIndent(costmodel.Calibrate(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", data)
}
