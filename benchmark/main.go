// Command benchmark is the repository's benchmark: five named workloads,
// each measured end to end in one run and layer by layer in a separate
// traced run. BENCHMARK.json at the repository root lists every metric and
// workload; README.md here defines them.
//
//	bash benchmark/run.sh --workload q1_scan --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh --workload q1_scan --trace 1 --trace-out .bench_build/q1.trace.json
//	bash benchmark/run.sh --aa 10
//	bash benchmark/run.sh --smoke
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"bipie/internal/costmodel"
	"bipie/internal/perfstat"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 16, "measured seconds of an untraced run")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace_event JSON to this file")
	aa := flag.Int("aa", 0, "A/A mode: run every workload in two alternating sets of this many runs and compare them")
	smoke := flag.Bool("smoke", false, "run every workload both ways with 200 ms rounds and check the printed metric names against BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	isolate()
	if *aa == 0 { // the A/A report opens with the machine signature itself
		fmt.Println(startupLine(*seed))
	}

	switch {
	case *smoke:
		if err := runSmoke("BENCHMARK.json", *seed, os.Stdout); err != nil {
			fail(err)
		}
	case *aa > 0:
		ok, err := runAA("BENCHMARK.json", *aa, *seconds, os.Stdout)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if workloads[*name] == nil {
			fail(fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames, ", ")))
		}
		var out *outcome
		var err error
		if *trace == 1 {
			out, err = runTraced(*name, *seed, shapeFor(*seconds), *traceOut)
		} else {
			out, err = runEndToEnd(*name, *seed, shapeFor(*seconds))
		}
		if err != nil {
			fail(err)
		}
		printOutcome(os.Stdout, out)
		if !out.correct() {
			os.Exit(1)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// isolate pins what would otherwise vary between runs for reasons that are
// not the program's: strategy choices follow the static cost profile rather
// than whatever a calibration measured this time, and the user's profile
// cache is neither read nor written (the override names a file under the
// build directory that nothing creates).
func isolate() {
	costmodel.SetActive(costmodel.Static())
	if err := os.Setenv("BIPIE_COSTMODEL_CACHE", filepath.Join(".bench_build", "costmodel-cache-unused.json")); err != nil {
		fail(err)
	}
}

func startupLine(seed int64) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return fmt.Sprintf("# bipie benchmark: GOMAXPROCS=%d GOGC=%s hz=%.0f cores=%d %s seed=%d head=%s",
		runtime.GOMAXPROCS(0), gogc, perfstat.Hz(), perfstat.Cores(), runtime.Version(), seed, gitHead())
}

// gitHead reads the commit the checkout is at straight from .git, when
// there is one (the benchmark is also run from plain source trees).
func gitHead() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
		if err != nil {
			return ref
		}
		h = strings.TrimSpace(string(b))
	}
	return h
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rawPrefix starts the lines that carry a corrected metric's measured value.
const rawPrefix = "# raw "

// printOutcome prints every metric by name and unit, the measured values
// behind the corrected ones as comment lines, then the one-line JSON result.
func printOutcome(w *os.File, out *outcome) {
	res := result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultValue{}}
	bw := bufio.NewWriter(w)
	for _, m := range out.metrics {
		fmt.Fprintf(bw, "%-48s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	for _, m := range out.raw.metrics {
		fmt.Fprintf(bw, "%s%-42s %14.6g %s\n", rawPrefix, m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err) // finite floats and strings only
	}
	fmt.Fprintf(bw, "%s\n", line)
	if err := bw.Flush(); err != nil {
		fail(err)
	}
}

func writeTraceFile(rec *spanRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if rec.dropped > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: trace holds the first %d spans; %d more were dropped\n", maxSpans, rec.dropped)
	}
	return f.Close()
}
