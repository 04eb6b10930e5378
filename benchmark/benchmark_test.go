package main

import (
	"io"
	"math"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.90, 90}, {0.91, 100}, {1, 100}, {0, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A percentile is reported only with ten samples beyond it.
func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false}, {109, 0.90, true},
		{20, 0.50, true}, {19, 0.50, false},
		{1000, 0.99, true}, {999, 0.99, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// withFloor pins the reference kernel's floor for a test.
func withFloor(t *testing.T, ns int64) {
	old := paceFloor.Load()
	paceFloor.Store(ns)
	t.Cleanup(func() { paceFloor.Store(old) })
}

// fakeRound has n ops of the given latency and probes that ran `factor`
// times slower than a 1000 ns floor.
func fakeRound(n int, lat time.Duration, factor float64) round {
	r := round{wall: time.Second, clients: 1, rows: int64(n)}
	for i := 0; i < n; i++ {
		r.lat = append(r.lat, float64(lat))
	}
	for i := 0; i < 10; i++ {
		r.pace.times = append(r.pace.times, int32(1000*factor))
	}
	return r
}

func TestTailPoolsTheRoundsAndTheirFactor(t *testing.T) {
	withFloor(t, 1000)
	// 60 ops at 20 ms beside a quiet neighbour and 60 at 60 ms beside one
	// that doubles the probes: p90 is a 60 ms op, the pooled factor 1.5.
	rounds := []round{fakeRound(60, 20*time.Millisecond, 1), fakeRound(60, 60*time.Millisecond, 2)}
	if got := tailMs(rounds, 0.90); !near(got, 40) {
		t.Errorf("tailMs = %v, want 40", got)
	}
	// Too short for the ten-beyond rule: still a number.
	if got := tailMs([]round{fakeRound(5, time.Millisecond, 1)}, 0.90); !near(got, 1) {
		t.Errorf("tailMs over a 5-op run = %v, want 1", got)
	}
}

// A round measured beside a busy neighbour and one measured on a quiet
// machine report the same corrected numbers.
func TestRoundStatsAreCorrectedByTheFactor(t *testing.T) {
	withFloor(t, 1000)
	quiet, noisy := fakeRound(50, 20*time.Millisecond, 1), fakeRound(25, 40*time.Millisecond, 2)
	quiet.cpu, noisy.cpu = time.Second, time.Second
	quiet.rows, noisy.rows = 1000, 500
	for _, f := range []func(*round) float64{roundP50ms, roundOpsPerSec, roundCyclesPerRow} {
		if a, b := f(&quiet), f(&noisy); math.Abs(a-b) > 1e-4*a {
			t.Errorf("corrected statistic differs: quiet %v, noisy %v", a, b)
		}
	}
	if got := rawP50ms(&noisy); !near(got, 40) {
		t.Errorf("raw p50 = %v, want the measured 40", got)
	}
	if got := quietFrac([]round{quiet, noisy, quiet, quiet}); got != 0.75 {
		t.Errorf("quietFrac = %v, want 0.75", got)
	}
}

func TestFactorClipsDescheduledProbes(t *testing.T) {
	withFloor(t, 1000)
	p := pace{times: []int32{1000, 1000, 1000, 50_000_000}}
	if got, want := p.factor(), (3*1.0+paceClip)/4; !near(got, want) {
		t.Errorf("factor = %v, want %v: one stalled probe counts as %d floors", got, want, paceClip)
	}
	if got := (&pace{}).factor(); got != 1 {
		t.Errorf("factor without probes = %v, want 1", got)
	}
}

func TestPaceSpendsOneFiftiethProbing(t *testing.T) {
	var p pace
	var ops time.Duration
	for i := 0; i < 200; i++ {
		p.after(5 * time.Millisecond)
		ops += 5 * time.Millisecond
	}
	duty := float64(p.total) / float64(ops)
	// One probe of overshoot at most, over a second of ops.
	if duty < 1.0/paceDuty || duty > 1.0/paceDuty+0.01 {
		t.Errorf("probing took %.4f of op time, want just above %.4f", duty, 1.0/paceDuty)
	}
}

// sleeper is a workload whose op only takes time.
type sleeper struct {
	n int
	d time.Duration
}

func (s *sleeper) setup(sizes, int64) error { return nil }
func (s *sleeper) verify() error            { return nil }
func (s *sleeper) clients() int             { return s.n }
func (s *sleeper) bytesPerRow() float64     { return 1 }
func (s *sleeper) close()                   {}
func (s *sleeper) op(int, int, *spanRecorder) (int64, bool) {
	time.Sleep(s.d)
	return 1, true
}

// Several clients stop each other to probe: the probing happens, all of it
// inside time counted as idle, and the rate is taken over the rest.
func TestClientsProbeWithTheOthersHeld(t *testing.T) {
	// 2 ms ops from two clients owe paceBurst of probing after 250 ms of them.
	r := newRunner(&sleeper{n: 2, d: 2 * time.Millisecond}).round(400*time.Millisecond, nil)
	if len(r.pace.times) == 0 {
		t.Fatal("two clients ran for 400 ms without a probe")
	}
	if r.pace.total > r.idle {
		t.Errorf("probes took %v but only %v counts as idle", r.pace.total, r.idle)
	}
	if r.busy() >= r.wall {
		t.Errorf("busy %v is not less than wall %v", r.busy(), r.wall)
	}
}

// A round runs one op per client even when its time is up before it starts,
// so no statistic is ever taken over nothing.
func TestRoundRunsAtLeastOneOpPerClient(t *testing.T) {
	if r := newRunner(&sleeper{n: 3, d: time.Microsecond}).round(0, nil); r.ops() != 3 {
		t.Errorf("a round of no length ran %d ops, want one per client", r.ops())
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4), the
// arithmetic the acceptance check uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := lightKeys(7, 1, 128), lightKeys(7, 1, 128); !reflect.DeepEqual(a, b) {
		t.Error("serve_light: same seed, different query stream")
	}
	if a, b := lightKeys(7, 1, 128), lightKeys(8, 1, 128); reflect.DeepEqual(a, b) {
		t.Error("serve_light: different seeds, same query stream")
	}
	if a, b := lightKeys(7, 0, 128), lightKeys(7, 1, 128); reflect.DeepEqual(a, b) {
		t.Error("serve_light: two clients share one query stream")
	}
	if a, b := filterShapes(1<<15, 7), filterShapes(1<<15, 7); !reflect.DeepEqual(a, b) {
		t.Error("filter_scan: same seed, different statements")
	}
	if a, b := filterShapes(1<<15, 7), filterShapes(1<<15, 8); reflect.DeepEqual(a, b) {
		t.Error("filter_scan: different seeds, same delta range")
	}
	cols := func(seed int64) columns {
		c, err := lineitemColumns(4096, seed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if a, b := cols(7), cols(7); a.equal(b) != nil {
		t.Error("ingest: same seed, different columns")
	}
	if a, b := cols(7), cols(8); a.equal(b) == nil {
		t.Error("ingest: different seeds, same columns")
	}
	runs := func(seed int64) columns {
		tbl, err := genRuns(4096, seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := decodeColumns(tbl)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if a, b := runs(7), runs(7); a.equal(b) != nil {
		t.Error("filter_scan: same seed, different runs table")
	}
	if a, b := runs(7), runs(8); a.equal(b) == nil {
		t.Error("filter_scan: different seeds, same runs table")
	}
}

func TestCheckAgainstReportsEveryMismatch(t *testing.T) {
	listed := []specMetric{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}, {Name: "c", Unit: "count"}}
	got := checkAgainst(listed, []metric{{"a", 1, "ms"}, {"b", 1, "ms"}, {"d", 1, "s"}})
	want := []string{"b: printed in ms, listed in s", "listed but not printed: c", "printed but not listed: d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkAgainst = %q, want %q", got, want)
	}
	if got := checkAgainst(listed, []metric{{"a", 1, "ms"}, {"b", 1, "s"}, {"c", 1, "count"}}); len(got) != 0 {
		t.Errorf("checkAgainst on a match = %q", got)
	}
}

func TestReportRefusesADuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a metric was added twice without a panic")
		}
	}()
	var r report
	r.add("x", "ms", 1)
	r.add("x", "ms", 2)
}

// The smoke path runs every workload both ways at toy sizes: every answer
// checked against the oracle, every metric BENCHMARK.json lists printed once
// with its unit, and nothing unlisted.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	isolate()
	if err := runSmoke("../BENCHMARK.json", 1, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// The result line of a failed run must say so.
func TestOutcomeCorrect(t *testing.T) {
	if (&outcome{attempted: 10}).correct() != true {
		t.Error("10 of 10 is correct")
	}
	if (&outcome{attempted: 10, failed: 1}).correct() {
		t.Error("a failed operation must make the run incorrect")
	}
	if (&outcome{}).correct() {
		t.Error("a run that attempted nothing is not correct")
	}
}

// The correctness gate: an answer that differs from the expected one counts
// as a failed operation, in a scan loop and through the server alike.
func TestWrongAnswersAreCountedAsFailures(t *testing.T) {
	isolate()
	for _, name := range []string{"q1_scan", "serve_light", "ingest"} {
		w := workloads[name]()
		if err := w.setup(smokeSizes, 1); err != nil {
			t.Fatal(err)
		}
		if err := w.verify(); err != nil {
			t.Fatal(err)
		}
		if r := newRunner(w).round(10*time.Millisecond, nil); r.ops() == 0 || r.failed != 0 {
			t.Errorf("%s: %d ops, %d failed before the expectation was broken", name, r.ops(), r.failed)
		}
		switch w := w.(type) {
		case *q1Scan:
			w.q.want++
		case *serveLight:
			for _, r := range w.reqs {
				r.want = []byte("[]")
			}
		case *ingest:
			w.wantQty++
		}
		if r := newRunner(w).round(10*time.Millisecond, nil); r.ops() == 0 || r.failed != int64(r.ops()) {
			t.Errorf("%s: %d of %d ops failed against a wrong expectation, want all", name, r.failed, r.ops())
		}
		w.close()
	}
}
