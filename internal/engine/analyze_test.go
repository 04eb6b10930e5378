package engine

import (
	"context"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bipie/internal/expr"
	"bipie/internal/obs"
)

// analyzeQuery is the filtered group-by used across the analyze tests: a
// pushdown-eligible conjunct, a residual, and two aggregates, so every
// phase the tracer knows about actually runs.
func analyzeQuery() *Query {
	return &Query{
		GroupBy: []string{"g"},
		Aggregates: []Aggregate{
			CountStar(),
			SumOf(expr.Mul(expr.Col("a"), expr.Sub(expr.Int(100), expr.Col("d")))),
		},
		Filter: expr.AndP(
			expr.Lt(expr.Col("d"), expr.Int(60)),
			expr.Ge(expr.Add(expr.Col("a"), expr.Col("d")), expr.Int(20)),
		),
	}
}

func TestExplainAnalyzeReport(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	tbl := buildTable(t, rng, 40000, 4, 10000)
	// Traced phase attribution must land near the end-to-end measurement;
	// the acceptance bound is 15%, asserted repo-wide on Q1 at larger scale.
	// One 40000-row scan lasts under a millisecond, so a single preemption
	// by a busy neighbour between two phases inflates measured but not
	// traced: the bound is held by the closest of a few attempts, every
	// one of which must pass the structural checks.
	const attempts = 10
	closest := math.Inf(1)
	for i := 0; i < attempts && closest > 0.25; i++ {
		rep, err := ExplainAnalyze(tbl, analyzeQuery(), Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkAnalyzeReport(t, rep)
		traced, measured := rep.TracedCyclesPerRow(), rep.MeasuredCyclesPerRow()
		closest = min(closest, math.Abs(traced-measured)/measured)
	}
	if closest > 0.25 {
		t.Errorf("traced vs measured cycles/row: off by %.0f%% at best over %d attempts, want within 25%%", 100*closest, attempts)
	}
}

// checkAnalyzeReport asserts everything about a report that does not
// depend on how long the scan took.
func checkAnalyzeReport(t *testing.T, rep *AnalyzeReport) {
	t.Helper()
	if rep.Rows != 40000 {
		t.Fatalf("rows = %d, want 40000", rep.Rows)
	}
	if rep.Result == nil || len(rep.Result.Rows) == 0 {
		t.Fatal("analyze lost the query result")
	}
	if len(rep.Plans) == 0 || len(rep.Phases) != int(obs.NumPhases) {
		t.Fatalf("plans/phases = %d/%d", len(rep.Plans), len(rep.Phases))
	}
	traced, measured := rep.TracedCyclesPerRow(), rep.MeasuredCyclesPerRow()
	if traced <= 0 || measured <= 0 {
		t.Fatalf("traced/measured = %v/%v, want positive", traced, measured)
	}
	if c := rep.Coverage(); c <= 0 || c > 1.05 {
		t.Fatalf("coverage = %v, want in (0, 1.05]", c)
	}
	// The decode and aggregate phases must have run and been attributed.
	byName := map[string]PhaseCost{}
	for _, pc := range rep.Phases {
		byName[pc.Phase] = pc
	}
	for _, name := range []string{"decode", "aggregate", "group-map", "plan"} {
		if byName[name].Calls == 0 {
			t.Errorf("phase %s recorded no calls", name)
		}
	}
	if len(rep.Strategies) == 0 {
		t.Fatal("no strategy costs")
	}
	for _, sc := range rep.Strategies {
		if sc.Units == 0 || sc.Rows == 0 {
			t.Errorf("strategy %s: units=%d rows=%d", sc.Strategy, sc.Units, sc.Rows)
		}
		if sc.AssumedCyclesPerRow <= 0 || sc.MeasuredCyclesPerRow <= 0 {
			t.Errorf("strategy %s: assumed=%v measured=%v, want positive",
				sc.Strategy, sc.AssumedCyclesPerRow, sc.MeasuredCyclesPerRow)
		}
	}
	if len(rep.Trace.Spans()) == 0 {
		t.Fatal("no spans captured at analyzeSpanCap")
	}
}

// analyzeNumRE strips run-dependent numbers (and duration units) so the
// report's shape can be compared as a golden string.
var (
	analyzeNumRE   = regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?(?:µs|ms|ns|s)?`)
	analyzeSpaceRE = regexp.MustCompile(`[ \t]+`)
)

func normalizeAnalyze(s string) string {
	s = analyzeNumRE.ReplaceAllString(s, "N")
	s = analyzeSpaceRE.ReplaceAllString(s, " ")
	s = strings.ReplaceAll(s, " \n", "\n")
	return s
}

func TestExplainAnalyzeFormatGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	tbl := buildTable(t, rng, 40000, 4, 10000)
	rep, err := ExplainAnalyze(tbl, analyzeQuery(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeAnalyze(rep.Format())
	want := normalizeAnalyze(`segment  rows    groups  special  strategy  model  sumwords  pushed  packed  residual  runsums  domains
0        10000  4  true  Scalar  2.0  2  1  1  true  0  packed
1        10000  4  true  Scalar  2.0  2  1  1  true  0  packed
2        10000  4  true  Scalar  2.0  2  1  1  true  0  packed
3        10000  4  true  Scalar  2.0  2  1  1  true  0  packed

rows:     40000 scanned, 23000 selected (57.5%)
wall:     1ms over 4 unit(s) — 50.0 cycles/row at 2.1 GHz
phases (cycles/row over scanned rows):
  plan       0.1   0.1%  (1 calls)
  zone-map   0.1   0.1%  (10 calls)
  encoded-filter  1.0  2.0%  (10 calls)
  decode     20.0  40.0%  (30 calls)
  selection  4.0   8.0%  (30 calls)
  group-map  3.0   6.0%  (10 calls)
  aggregate  15.0  30.0%  (20 calls)
  merge      0.3   0.6%  (6 calls)
  traced total  43.5  87.0% of measured
strategies (aggregate phase, cycles/row):
  Scalar  assumed 2.0  measured 15.0  over 40000 rows in 4 unit(s)
model (cycles per phase-touched row):
  encoded-filter  predicted 1.0  measured 1.2  error 20.0%
  aggregate       predicted 2.0  measured 15.0  error 86.7%
spans:    100 captured, 0 dropped
`)
	if got != want {
		t.Errorf("analyze format drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The tracing-disabled scan path must not allocate: the nil-checked hooks
// compile to one predictable branch per phase, nothing more. This is the
// same steady-state contract TestPreparedZeroAllocSteadyState pins, asserted
// here against the instrumented batch loop specifically.
func TestTraceDisabledPathZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	tbl := buildTable(t, rng, 20000, 4, 20000)
	p, err := Prepare(tbl, analyzeQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	segments, _ := p.segments()
	sp, err := p.planFor(segments[0])
	if err != nil {
		t.Fatal(err)
	}
	e := sp.getExec()
	defer e.release()
	ctx := context.Background()
	batches := sp.seg.Batches()
	allocs := testing.AllocsPerRun(20, func() {
		e.reset()
		if e.trace != nil {
			t.Fatal("reset left a tracer attached")
		}
		if err := e.scanBatches(ctx, batches); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced scan allocates: %.1f allocs/op, want 0", allocs)
	}
}

// With tracing on, the per-batch hot path still allocates nothing: spans
// append into the buffer StartUnit preallocated, and overflow only bumps a
// counter. (The per-unit Tracer allocation happens once in StartUnit,
// outside this loop.)
func TestTraceEnabledSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	tbl := buildTable(t, rng, 20000, 4, 20000)
	p, err := Prepare(tbl, analyzeQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	segments, _ := p.segments()
	sp, err := p.planFor(segments[0])
	if err != nil {
		t.Fatal(err)
	}
	e := sp.getExec()
	defer e.release()
	trace := obs.NewScanTrace(64)
	trace.BeginScan()
	tracer := trace.StartUnit("Multi")
	ctx := context.Background()
	batches := sp.seg.Batches()
	allocs := testing.AllocsPerRun(20, func() {
		e.reset()
		e.trace = tracer
		if err := e.scanBatches(ctx, batches); err != nil {
			t.Error(err)
		}
	})
	e.trace = nil
	if allocs != 0 {
		t.Errorf("traced scan allocates per batch loop: %.1f allocs/op, want 0", allocs)
	}
	if ph := tracer.Phases(); ph[obs.PhaseAggregate].Calls == 0 {
		t.Error("tracer recorded nothing")
	}
}

func TestRunWithTraceFillsStatsPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	tbl := buildTable(t, rng, 20000, 4, 6000)
	q := analyzeQuery()

	_, plain := runTraced(t, tbl, q, Options{}, nil)
	if plain.Phases != nil {
		t.Fatalf("untraced scan filled Phases: %+v", plain.Phases)
	}

	_, stats := runTraced(t, tbl, q, Options{}, obs.NewScanTrace(0))
	if len(stats.Phases) != int(obs.NumPhases) {
		t.Fatalf("traced scan Phases len = %d, want %d", len(stats.Phases), obs.NumPhases)
	}
	var nanos int64
	for _, ps := range stats.Phases {
		nanos += ps.Nanos
	}
	if nanos <= 0 {
		t.Fatal("traced scan attributed no time")
	}
	out := stats.Format()
	if !strings.Contains(out, "phases:") || !strings.Contains(out, "aggregate") {
		t.Fatalf("Format lost the phase breakdown:\n%s", out)
	}
}

// TestMetricsConcurrentScans runs parallel scans against the process-wide
// registry; under -race it pins that metric recording from concurrent Runs
// is safe, and it checks the counters actually advance.
func TestMetricsConcurrentScans(t *testing.T) {
	rng := rand.New(rand.NewSource(154))
	tbl := buildTable(t, rng, 20000, 4, 6000)
	p, err := Prepare(tbl, analyzeQuery(), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	startedBefore := reg.Counter("engine.scans_started").Value()
	finishedBefore := reg.Counter("engine.scans_finished").Value()
	rowsBefore := reg.Counter("engine.rows_scanned").Value()

	const scans = 16
	var wg sync.WaitGroup
	for i := 0; i < scans; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if got := reg.Counter("engine.scans_started").Value() - startedBefore; got < scans {
		t.Errorf("scans_started advanced by %d, want >= %d", got, scans)
	}
	if got := reg.Counter("engine.scans_finished").Value() - finishedBefore; got < scans {
		t.Errorf("scans_finished advanced by %d, want >= %d", got, scans)
	}
	if got := reg.Counter("engine.rows_scanned").Value() - rowsBefore; got < scans*20000 {
		t.Errorf("rows_scanned advanced by %d, want >= %d", got, scans*20000)
	}
}
