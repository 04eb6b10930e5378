package bipie_test

// ExplainAnalyze acceptance on TPC-H Q1: the per-phase cycles/row
// attribution must explain the scan's end-to-end cost, and the report's
// shape must stay stable (golden, with run-dependent numbers stripped).

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"bipie"

	"bipie/internal/tpch"
)

// q1AnalyzeRows keeps the traced scan in steady state long enough for the
// phase totals to dwarf per-interval clock overhead, while staying fast
// enough for `go test ./...`.
const q1AnalyzeRows = 1 << 19

var (
	q1NumRE   = regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?(?:µs|ms|ns|s)?`)
	q1SpaceRE = regexp.MustCompile(`[ \t]+`)
)

func normalizeReport(s string) string {
	s = q1NumRE.ReplaceAllString(s, "N")
	s = q1SpaceRE.ReplaceAllString(s, " ")
	s = strings.ReplaceAll(s, " \n", "\n")
	return s
}

func analyzeQ1(t *testing.T, opts bipie.Options) *bipie.AnalyzeReport {
	t.Helper()
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: q1AnalyzeRows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 1
	rep, err := bipie.ExplainAnalyze(tbl, tpch.Q1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestExplainAnalyzeQ1Coverage is the tentpole acceptance bound: on Q1 the
// per-phase cycles/row must sum to within 15% of the scan's measured
// end-to-end cycles/row — the same cycles/row regime BenchmarkTable5TPCHQ1
// reports.
func TestExplainAnalyzeQ1Coverage(t *testing.T) {
	rep := analyzeQ1(t, bipie.Options{})
	if rep.Rows != q1AnalyzeRows {
		t.Fatalf("rows = %d, want %d", rep.Rows, q1AnalyzeRows)
	}
	traced, measured := rep.TracedCyclesPerRow(), rep.MeasuredCyclesPerRow()
	if traced <= 0 || measured <= 0 {
		t.Fatalf("traced/measured cycles/row = %v/%v, want positive", traced, measured)
	}
	if off := math.Abs(traced-measured) / measured; off > 0.15 {
		t.Errorf("phase attribution off by %.1f%%: traced %.2f vs measured %.2f cycles/row (limit 15%%)",
			100*off, traced, measured)
	}
	if c := rep.Coverage(); c > 1.05 {
		t.Errorf("coverage = %.3f: traced more time than the scan took", c)
	}
}

func TestExplainAnalyzeQ1Golden(t *testing.T) {
	// The golden pins the report's *shape*, so the strategy column must not
	// depend on what this machine's calibration happens to measure (race
	// instrumentation alone can flip a close call between two strategies): run it
	// under the deterministic static profile.
	rep := analyzeQ1(t, bipie.Options{CostProfile: bipie.StaticCostModel()})
	got := normalizeReport(rep.Format())
	want := normalizeReport(`segment  rows     groups  special  strategy  model  sumwords   pushed  packed  residual  runsums  domains
0        524288  6  true  Multi  4.8  1,4,4×,8×,1  1  1  false  0  packed

rows:     524288 scanned, 515000 selected (98.2%)
wall:     8ms over 1 unit(s) — 30.0 cycles/row at 2.1 GHz
phases (cycles/row over scanned rows):
  plan       0.0   0.0%  (1 calls)
  zone-map   0.1   0.1%  (128 calls)
  encoded-filter  4.0  7.0%  (128 calls)
  decode     10.0  33.0%  (128 calls)
  aggregate  6.0   35.0%  (260 calls)
  merge      0.0   0.0%  (2 calls)
  traced total  30.0  99.0% of measured
strategies (aggregate phase, cycles/row):
  Multi  assumed 4.8  measured 6.0  over 524288 rows in 1 unit(s)
model (cycles per phase-touched row):
  encoded-filter  predicted 1.0  measured 1.1  error 10.0%
  decode          predicted 9.0  measured 10.0  error 10.0%
  aggregate       predicted 4.8  measured 6.0  error 18.0%
spans:    1770 captured, 0 dropped
`)
	if got != want {
		t.Errorf("Q1 analyze format drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The retained trace must dump a loadable Chrome trace.
	var buf bytes.Buffer
	if err := rep.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace captured no events")
	}
}
