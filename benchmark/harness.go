package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bipie/internal/perfstat"
)

// A workload is one named set of inputs and the operation the benchmark
// repeats over them. setup builds everything from the seed (generate,
// encode, flush, prepare or start a server) and is what setup_s times;
// verify then checks the program's answers against an oracle and fixes the
// expected checksums that every measured op is compared with.
type workload interface {
	setup(sz sizes, seed int64) error
	verify() error
	// clients is the number of closed-loop callers; each keeps exactly one
	// op in flight.
	clients() int
	// op runs the seq-th operation of one client and reports the rows the
	// program scanned (ingested, for ingest) and whether the answer was
	// the expected one. rec is nil except in traced rounds.
	op(client, seq int, rec *spanRecorder) (rows int64, ok bool)
	// bytesPerRow is Table.WriteTo bytes over rows of the data served.
	bytesPerRow() float64
	close()
}

var workloads = map[string]func() workload{
	"q1_scan":     func() workload { return &q1Scan{} },
	"filter_scan": func() workload { return &filterScan{} },
	"serve_mixed": func() workload { return &serveMixed{} },
	"serve_light": func() workload { return &serveLight{} },
	"ingest":      func() workload { return &ingest{} },
}

// workloadNames is the order -aa and -smoke walk the workloads in.
var workloadNames = []string{"q1_scan", "filter_scan", "serve_mixed", "serve_light", "ingest"}

// nproc bounds the load generator: at most this many client goroutines or
// connections, so the generator never outnumbers the cores it shares with
// the program.
func nproc() int { return runtime.GOMAXPROCS(0) }

// A round is one fixed-length slice of the measured phase. Every timing
// statistic is computed inside a round and divided by the round's
// interference factor (pace.go); the run reports the median round.
type round struct {
	lat     []float64 // per-op latency in ns as measured, ascending
	wall    time.Duration
	cpu     time.Duration // process user+sys over the round, all threads
	rows    int64
	failed  int64
	clients int
	pace    pace          // the clients' reference probes, summed
	idle    time.Duration // what the clients spent probing or held at the gate, summed
}

func (r *round) ops() int { return len(r.lat) }

// busy is the round's wall time less the share its clients spent probing or
// waiting for a probe to end.
func (r *round) busy() time.Duration { return r.wall - r.idle/time.Duration(r.clients) }

// runner drives a workload's clients round after round; seq carries each
// client's position in its operation stream across rounds.
type runner struct {
	w   workload
	seq []int
}

func newRunner(w workload) *runner { return &runner{w: w, seq: make([]int, w.clients())} }

// paceBurst is how much probing several clients let build up before one of
// them stops the others to pay it: stopping means waiting for every op in
// flight to end, and the first probe after a stop still sees the program
// winding down (stopping every few ops instead read factors of 1.14–1.44
// where this read 1.06–1.27, same seeds, runs alternating), so it is done a
// few times a second, ~50 probes at a time.
const paceBurst = 5 * time.Millisecond

func (r *runner) round(d time.Duration, rec *spanRecorder) round {
	n := len(r.seq)
	lats := make([][]float64, n)
	rows := make([]int64, n)
	failed := make([]int64, n)
	paces := make([]pace, n)
	idles := make([]time.Duration, n)
	// An op holds the gate shared and a probing client holds it alone, so a
	// probe never runs beside an op: what it measures is the neighbour, not
	// the program's own load on the other cores. debt is the probing the
	// clients owe between them, 1/paceDuty of the round so far.
	var gate sync.RWMutex
	var debt atomic.Int64
	burst := time.Duration(0) // a lone caller pays after every op
	if n > 1 {
		burst = paceBurst
	}
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Tallied in locals and handed over at the end, so that two
			// clients never write to one cache line per op.
			lat := make([]float64, 0, 1024)
			var pc pace
			var idle time.Duration
			var nrows, nfailed int64
			seq := r.seq[c]
			for {
				held := time.Now()
				gate.RLock()
				t0 := time.Now()
				idle += t0.Sub(held)
				// At least one op, however late the client got going.
				if len(lat) > 0 && !t0.Before(deadline) {
					gate.RUnlock()
					break
				}
				got, ok := r.w.op(c, seq, rec)
				took := time.Since(t0)
				gate.RUnlock()
				lat = append(lat, float64(took))
				seq++
				nrows += got
				if !ok {
					nfailed++
				}
				if time.Duration(debt.Add(int64(took)/int64(paceDuty*n))) > burst {
					held = time.Now()
					gate.Lock()
					debt.Add(int64(pc.pay(time.Duration(debt.Swap(0)))))
					gate.Unlock()
					idle += time.Since(held)
				}
			}
			lats[c], paces[c], idles[c], rows[c], failed[c], r.seq[c] = lat, pc, idle, nrows, nfailed, seq
		}(c)
	}
	wg.Wait()
	out := round{wall: time.Since(start), cpu: processCPU() - cpu0, clients: n}
	for c := 0; c < n; c++ {
		out.pace.add(paces[c])
		out.idle += idles[c]
		out.lat = append(out.lat, lats[c]...)
		out.rows += rows[c]
		out.failed += failed[c]
	}
	sort.Float64s(out.lat)
	return out
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF cannot fail on a valid pointer
	}
	return ru
}

// processCPU is the process's user+system CPU time over all its threads.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// percentile is the nearest-rank q-quantile of an ascending sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many samples a percentile needs above it before it is
// reported (choosing-metrics §1).
const beyond = 10

// supported reports whether n samples leave at least ten beyond the
// q-quantile.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= beyond
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perRound maps each round to one statistic.
func perRound(rounds []round, f func(*round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i := range rounds {
		out[i] = f(&rounds[i])
	}
	return out
}

// The per-round statistics: raw* as measured (the probes' own time taken
// out), round* divided by (a rate: multiplied by) the round's interference
// factor.
func rawP50ms(r *round) float64       { return percentile(r.lat, 0.50) / 1e6 }
func rawOpsPerSec(r *round) float64   { return float64(r.ops()) / r.busy().Seconds() }
func roundP50ms(r *round) float64     { return rawP50ms(r) / r.pace.factor() }
func roundOpsPerSec(r *round) float64 { return rawOpsPerSec(r) * r.pace.factor() }
func rawCyclesPerRow(r *round) float64 {
	if r.rows == 0 {
		return 0
	}
	return (r.cpu - r.pace.total).Seconds() * perfstat.Hz() / float64(r.rows)
}
func roundCyclesPerRow(r *round) float64 { return rawCyclesPerRow(r) / r.pace.factor() }
func roundFactor(r *round) float64       { return r.pace.factor() }

// tailMs is the q-quantile in ms of the rounds' latencies pooled, corrected
// by the factor of the rounds together. Only p90 is asked for, and only of
// the serve workloads, whose few traced rounds hold its hundred samples
// several times over; when they do not (the -smoke path, a machine slowed
// threefold) the number is still printed, and stderr says what it rests on.
func tailMs(rounds []round, q float64) float64 {
	var pool []float64
	var pc pace
	for i := range rounds {
		pool = append(pool, rounds[i].lat...)
		pc.add(rounds[i].pace)
	}
	sort.Float64s(pool)
	if !supported(len(pool), q) {
		fmt.Fprintf(os.Stderr, "benchmark: p%.0f taken over %d samples, fewer than %d beyond it\n", 100*q, len(pool), beyond)
	}
	return percentile(pool, q) / 1e6 / pc.factor()
}

// quietFrac is the share of rounds whose raw median latency is within 5 %
// of the best round's: 1 when the machine treated every round alike.
func quietFrac(rounds []round) float64 {
	p50 := perRound(rounds, rawP50ms)
	best := slices.Min(p50)
	n := 0
	for _, v := range p50 {
		if v <= best*1.05 {
			n++
		}
	}
	return float64(n) / float64(len(p50))
}

// A metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects metrics in print order and refuses a name used twice, so
// every metric is printed exactly once.
type report struct {
	metrics []metric
	seen    map[string]bool
}

func (r *report) add(name, unit string, value float64) {
	if r.seen == nil {
		r.seen = map[string]bool{}
	}
	if r.seen[name] {
		panic("benchmark: metric reported twice: " + name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("benchmark: metric %s is %v", name, value))
	}
	r.seen[name] = true
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// outcome is what one run hands back: its metrics and the correctness
// tally behind success_frac.
type outcome struct {
	report
	// raw holds, for the corrected metrics of an untraced run, the values as
	// measured, and the factor between them. They are printed as comment
	// lines: BENCHMARK.json lists the corrected ones.
	raw       report
	attempted int64
	failed    int64
}

func (o *outcome) correct() bool { return o.attempted > 0 && o.failed == 0 }

// sizes are the row counts of the data the workloads build. The full sizes
// are part of the workloads' definitions; the -smoke path shrinks them so
// that it finishes in seconds.
type sizes struct {
	lineitem    int // the table q1_scan, filter_scan and serve_mixed share
	runs        int // filter_scan's run-length table
	lightTables int // serve_light's tables ...
	lightRows   int // ... and the rows of each
	ingest      int // rows one ingest op writes and reloads
}

var (
	// Two segments of lineitem, ~14 MB encoded: well past the caches. 32
	// small tables × 4 shapes = 128 distinct plan keys against the server's
	// 64-entry plan cache, so hits and misses both occur and the working
	// set is larger than the program's own cache.
	fullSizes  = sizes{lineitem: 1 << 21, runs: 1 << 21, lightTables: 32, lightRows: 1 << 15, ingest: 1 << 17}
	smokeSizes = sizes{lineitem: 1 << 15, runs: 1 << 15, lightTables: 4, lightRows: 1 << 12, ingest: 1 << 13}
)

// shape is how a run spends its time. The defaults come from -seconds; the
// -smoke path shrinks everything to prove the plumbing, not to measure.
type shape struct {
	sz       sizes
	setups   int           // complete set-ups; setup_s is the fastest
	warmup   time.Duration // discarded
	rounds   int           // measured rounds of an untraced run
	roundLen time.Duration
	// traced run: pairs of a quiet round (the untraced side of
	// harness.trace_overhead_frac) and a round with spans recorded.
	tracedPairs int
	tracedLen   time.Duration
	probe       probeBudget
}

func shapeFor(seconds int) shape {
	total := time.Duration(seconds) * time.Second
	return shape{
		sz:          fullSizes,
		setups:      3,
		warmup:      2 * time.Second,
		rounds:      8,
		roundLen:    total / 8,
		tracedPairs: 4,
		tracedLen:   total / 16,
		probe:       probeBudget{rounds: 1000, roundLen: 100 * time.Microsecond, calls: 9, scans: 25},
	}
}

func smokeShape() shape {
	return shape{
		sz:          smokeSizes,
		setups:      1,
		warmup:      20 * time.Millisecond,
		rounds:      1,
		roundLen:    200 * time.Millisecond,
		tracedPairs: 1,
		tracedLen:   50 * time.Millisecond,
		probe:       probeBudget{rounds: 2, roundLen: 50 * time.Microsecond, calls: 1, scans: 1},
	}
}

// setUp builds the workload sh.setups times from scratch and keeps the last
// one. Each set-up's time is corrected by the factor a prober measured
// beside it; setup_s is the fastest of them, because what the correction
// leaves — page faults, heap growth in the first set-up, a neighbour's
// memory traffic — only ever adds time. It returns that time and, beside
// it, the fastest as measured. The oracle check runs once, after the clock
// has stopped.
func setUp(name string, seed int64, sh shape) (w workload, corrected, raw float64, err error) {
	times := make([]float64, sh.setups)
	paces := make([]pace, sh.setups)
	for i := range times {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		w = workloads[name]()
		t0 := time.Now()
		p, err := probeDuring(func() error { return w.setup(sh.sz, seed) })
		if err != nil {
			w.close()
			return nil, 0, 0, fmt.Errorf("%s: set-up: %w", name, err)
		}
		times[i], paces[i] = time.Since(t0).Seconds(), p
	}
	if err := w.verify(); err != nil {
		w.close()
		return nil, 0, 0, fmt.Errorf("%s: oracle check: %w", name, err)
	}
	correctedTimes := make([]float64, sh.setups)
	for i, t := range times {
		correctedTimes[i] = t / paces[i].factor()
		fmt.Fprintf(os.Stderr, "set-up %d: %.3f s measured, factor %.3f over %d probes\n", i, t, paces[i].factor(), len(paces[i].times))
	}
	return w, slices.Min(correctedTimes), slices.Min(times), nil
}

// logRounds writes what the estimators saw, round by round, to stderr: the
// record to read when a run's numbers look disturbed.
func logRounds(rounds []round) {
	fmt.Fprintf(os.Stderr, "reference kernel floor %d ns\n", paceFloor.Load())
	for i := range rounds {
		r := &rounds[i]
		fmt.Fprintf(os.Stderr, "round %d: %d ops, factor %.3f over %d probes; measured p50 %.4f ms, %.2f ops/s, %.2f cycles/row; corrected p50 %.4f ms\n",
			i, r.ops(), r.pace.factor(), len(r.pace.times), rawP50ms(r), rawOpsPerSec(r), rawCyclesPerRow(r), roundP50ms(r))
	}
}

// runEndToEnd is the untraced run: the only source of end-to-end metrics.
func runEndToEnd(name string, seed int64, sh shape) (*outcome, error) {
	w, setupS, rawSetupS, err := setUp(name, seed, sh)
	if err != nil {
		return nil, err
	}
	defer w.close()
	run := newRunner(w)
	run.round(sh.warmup, nil)
	rounds := make([]round, sh.rounds)
	for i := range rounds {
		rounds[i] = run.round(sh.roundLen, nil)
	}
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, the second frees them, so what is left is what the
	// program holds on to and not what its last ops happened to pool.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	logRounds(rounds)

	out := &outcome{}
	for i := range rounds {
		out.attempted += int64(rounds[i].ops())
		out.failed += rounds[i].failed
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", name)
	}
	out.add("setup_s", "s", setupS)
	out.add("latency_p50_ms", "ms", median(perRound(rounds, roundP50ms)))
	out.add("ops_per_s", "1/s", median(perRound(rounds, roundOpsPerSec)))
	out.add("cpu_cycles_per_row", "cycles", median(perRound(rounds, roundCyclesPerRow)))
	out.add("success_frac", "ratio", float64(out.attempted-out.failed)/float64(out.attempted))
	out.add("live_heap_mb", "MiB", float64(ms.HeapAlloc)/(1<<20))
	out.add("bytes_per_row", "B", w.bytesPerRow())
	// The same statistics as measured, so that nobody has to take the
	// correction on trust.
	out.raw.add("setup_s", "s", rawSetupS)
	out.raw.add("latency_p50_ms", "ms", median(perRound(rounds, rawP50ms)))
	out.raw.add("ops_per_s", "1/s", median(perRound(rounds, rawOpsPerSec)))
	out.raw.add("cpu_cycles_per_row", "cycles", median(perRound(rounds, rawCyclesPerRow)))
	out.raw.add("interference_factor", "ratio", median(perRound(rounds, roundFactor)))
	return out, nil
}
