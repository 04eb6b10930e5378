package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"bipie/internal/costmodel"
	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/perfstat"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// The upper rungs of the ladder: the engine's phases, the cost model, and
// the serving path, read through the tracing the program already publishes
// (Prepared.RunTraced/obs.ScanTrace, serve.Server.Journal).

// A tracedScan is one RunTraced execution boiled down to what the ladder
// reports.
type tracedScan struct {
	phases   [obs.NumPhases]obs.PhaseStat
	measured int64 // on-core ns: units plus driver-side plan and merge
	stats    engine.ScanStats
}

func (t *tracedScan) traced() int64 {
	var n int64
	for _, p := range t.phases {
		n += p.Nanos
	}
	return n
}

// meanTracedScan runs the query n times under a ScanTrace, probing between
// the scans like a round does between ops, and returns their mean — phase by
// phase — divided by the factor: a mean, because the factor is one. A scan
// that took three times the fastest was descheduled and is left out, as a
// probe is clipped. On-core time is measured the way ExplainAnalyze
// measures it: the units' wall time plus the driver's plan resolution and
// its share of the merge.
func meanTracedScan(q *scanQuery, n int) (tracedScan, error) {
	scans := make([]tracedScan, n)
	var pc pace
	fastest := int64(math.MaxInt64)
	for i := range scans {
		tr := obs.NewScanTrace(0)
		t0 := time.Now()
		res, stats, err := q.prep.RunTraced(context.Background(), tr)
		pc.after(time.Since(t0))
		if err != nil {
			return tracedScan{}, fmt.Errorf("%s: traced scan: %w", q.name, err)
		}
		if checksum(res) != q.want {
			return tracedScan{}, fmt.Errorf("%s: traced scan returned a different answer", q.name)
		}
		ph := tr.Phases()
		driverMerge := ph[obs.PhaseMerge].Nanos
		for _, g := range tr.Groups() {
			driverMerge -= g.Phases[obs.PhaseMerge].Nanos
		}
		scans[i] = tracedScan{phases: ph, stats: stats,
			measured: tr.UnitNanos() + ph[obs.PhasePlan].Nanos + max(driverMerge, 0)}
		fastest = min(fastest, scans[i].measured)
	}
	mean := tracedScan{stats: scans[0].stats}
	kept := 0
	for _, sc := range scans {
		if sc.measured > paceClip*fastest {
			continue
		}
		kept++
		mean.measured += sc.measured
		for p := range mean.phases {
			mean.phases[p].Nanos += sc.phases[p].Nanos
		}
	}
	scale := 1 / (float64(kept) * pc.factor())
	mean.measured = int64(float64(mean.measured) * scale)
	for p := range mean.phases {
		mean.phases[p].Nanos = int64(float64(mean.phases[p].Nanos) * scale)
	}
	return mean, nil
}

func cyclesPerRow(nanos, rows int64) float64 {
	return float64(nanos) / 1e9 * perfstat.Hz() / float64(rows)
}

// q1Sums is the number of distinct sums TPC-H Q1 accumulates (quantity,
// price, discounted price, charge, discount); the averages reuse them.
const q1Sums = 5

// engineMetrics reports the scan's phases for Q1 and for the five filter
// shapes, and how far each stands from the kernels probed below it.
func engineMetrics(out *report, b probeBudget, q1 *scanQuery, shapes []*scanQuery, k kernelCosts) error {
	phaseName := func(p int) string { return strings.ReplaceAll(obs.Phase(p).String(), "-", "_") }

	scan, err := meanTracedScan(q1, b.scans)
	if err != nil {
		return err
	}
	for p, ps := range scan.phases {
		out.add("engine.q1."+phaseName(p)+".cycles_per_row", "cycles", cyclesPerRow(ps.Nanos, q1.rows))
	}
	out.add("engine.q1.trace_coverage", "ratio", float64(scan.traced())/float64(scan.measured))
	out.add("engine.q1.prepare_ms", "ms", b.heavySeconds(func() {
		if _, err := engine.Prepare(q1.tbl, q1.q, engine.Options{}); err != nil {
			panic(err) // prepared once already
		}
	})*1e3)
	// Q1 decodes every column but the filter's (compared packed) and the
	// key (never read): two dictionary id vectors and four values.
	var decodeKernels float64
	for _, w := range []uint8{1, 2, 4, 4, 6, 24} {
		decodeKernels += k.unpack[w]
	}
	out.add("engine.q1.scan_over_kernel.decode", "ratio",
		cyclesPerRow(scan.phases[obs.PhaseDecode].Nanos, q1.rows)/decodeKernels)
	out.add("engine.q1.scan_over_kernel.aggregate", "ratio",
		cyclesPerRow(scan.phases[obs.PhaseAggregate].Nanos, q1.rows)/(q1Sums*k.scalarSum))

	var sum tracedScan
	var rows int64
	for _, s := range shapes {
		t, err := meanTracedScan(s, b.scans)
		if err != nil {
			return err
		}
		out.add("engine.filter."+s.name+".cycles_per_row", "cycles", cyclesPerRow(t.measured, s.rows))
		out.add("engine.filter."+s.name+".selected_frac", "ratio", float64(t.stats.RowsSelected)/float64(t.stats.RowsTotal))
		for p := range sum.phases {
			sum.phases[p].Nanos += t.phases[p].Nanos
		}
		sum.measured += t.measured
		rows += s.rows
		sum.stats.Batches += t.stats.Batches
		sum.stats.BatchesSkipped += t.stats.BatchesSkipped
		sum.stats.PackedKernelBatches += t.stats.PackedKernelBatches
		sum.stats.RLEFilterBatches += t.stats.RLEFilterBatches
		sum.stats.DictFilterBatches += t.stats.DictFilterBatches
		sum.stats.RunSpanBatches += t.stats.RunSpanBatches
		sum.stats.SegmentsEliminated += t.stats.SegmentsEliminated
	}
	for p, ps := range sum.phases {
		out.add("engine.filter."+phaseName(p)+".cycles_per_row", "cycles", cyclesPerRow(ps.Nanos, rows))
	}
	out.add("engine.filter.trace_coverage", "ratio", float64(sum.traced())/float64(sum.measured))
	out.add("engine.filter.prepare_ms", "ms", b.heavySeconds(func() {
		for _, s := range shapes {
			if _, err := engine.Prepare(s.tbl, s.q, engine.Options{}); err != nil {
				panic(err)
			}
		}
	})*1e3)
	batches := float64(sum.stats.Batches)
	out.add("engine.filter.batches_skipped_frac", "ratio", float64(sum.stats.BatchesSkipped)/batches)
	out.add("engine.filter.packed_kernel_frac", "ratio", float64(sum.stats.PackedKernelBatches)/batches)
	out.add("engine.filter.rle_filter_frac", "ratio", float64(sum.stats.RLEFilterBatches)/batches)
	out.add("engine.filter.dict_filter_frac", "ratio", float64(sum.stats.DictFilterBatches)/batches)
	out.add("engine.filter.run_span_frac", "ratio", float64(sum.stats.RunSpanBatches)/batches)
	out.add("engine.filter.segments_eliminated", "count", float64(sum.stats.SegmentsEliminated))
	return nil
}

// costmodelMetrics calibrates a profile (without installing it: the run
// stays pinned to the static one) and reports how long that took, how well
// it predicts the measured phases, and how many per-segment plan decisions
// it would change.
func costmodelMetrics(out *report, q1 *scanQuery, shapes []*scanQuery) error {
	t0 := time.Now()
	cal := costmodel.Calibrate()
	out.add("costmodel.calibrate_s", "s", time.Since(t0).Seconds())

	modelErr := func(qs []*scanQuery) (float64, error) {
		var sum float64
		var n int
		for _, s := range qs {
			rep, err := engine.ExplainAnalyze(s.tbl, s.q, engine.Options{CostProfile: cal})
			if err != nil {
				return 0, fmt.Errorf("%s: explain analyze: %w", s.name, err)
			}
			for _, m := range rep.Model {
				sum += m.Err()
				n++
			}
		}
		if n == 0 {
			return 0, nil
		}
		return sum / float64(n), nil
	}
	e, err := modelErr([]*scanQuery{q1})
	if err != nil {
		return err
	}
	out.add("costmodel.q1.model_err", "ratio", e)
	if e, err = modelErr(shapes); err != nil {
		return err
	}
	out.add("costmodel.filter.model_err", "ratio", e)

	changed := 0
	for _, s := range append([]*scanQuery{q1}, shapes...) {
		decisions := func(p *costmodel.Profile) ([]string, error) {
			prep, err := engine.Prepare(s.tbl, s.q, engine.Options{CostProfile: p})
			if err != nil {
				return nil, err
			}
			plans, err := prep.Explain()
			if err != nil {
				return nil, err
			}
			var d []string
			for _, pl := range plans {
				d = append(d, pl.Strategy+" "+strings.Join(pl.PushedDomains, ","))
			}
			return d, nil
		}
		static, err := decisions(costmodel.Static())
		if err != nil {
			return err
		}
		calibrated, err := decisions(cal)
		if err != nil {
			return err
		}
		for i := range static {
			if static[i] != calibrated[i] {
				changed++
			}
		}
	}
	out.add("costmodel.decisions_changed", "count", float64(changed))
	return nil
}

// get fetches a debug route from the handler in-process.
func get(h http.Handler, path, accept string) error {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	m := &memResponse{hdr: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(m, req)
	if m.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, m.status)
	}
	return nil
}

// serveMetrics reads the serving path's stages back from the journal after
// traced rounds on a serve workload, and times the observability endpoints.
// Every time is divided by the traced rounds' interference factor.
func serveMetrics(out *report, b probeBudget, s *served, rounds []round) error {
	var pc pace
	for i := range rounds {
		pc.add(rounds[i].pace)
	}
	f := pc.factor()
	var parse, queue, plan, exec, encode, phaseOverExec []float64
	for _, js := range s.srv.Journal().Snapshot() {
		if js.Status != http.StatusOK {
			continue
		}
		parse = append(parse, float64(js.ParseNS)/1e6)
		queue = append(queue, float64(js.QueueNS)/1e6)
		plan = append(plan, float64(js.PlanNS)/1e6)
		exec = append(exec, float64(js.ExecNS)/1e6)
		encode = append(encode, float64(js.EncodeNS)/1e6)
		var ph int64
		for _, p := range js.Phases {
			ph += p.Nanos
		}
		if js.ExecNS > 0 {
			phaseOverExec = append(phaseOverExec, float64(ph)/float64(js.ExecNS))
		}
	}
	if len(exec) == 0 {
		return fmt.Errorf("the request journal holds no served request")
	}
	out.add("serve.parse_ms", "ms", median(parse)/f)
	out.add("serve.queue_ms", "ms", median(queue)/f)
	out.add("serve.plan_ms", "ms", median(plan)/f)
	out.add("serve.exec_ms", "ms", median(exec)/f)
	out.add("serve.encode_ms", "ms", median(encode)/f)

	// The clients have stopped; the lock is for the race detector's peace.
	s.mu.Lock()
	defer s.mu.Unlock()
	var transport []float64
	for _, c := range s.samples {
		transport = append(transport, float64(c.clientNS-c.serverNS)/1e6)
	}
	out.add("serve.transport_ms", "ms", median(transport)/f)
	cache := s.srv.Cache().Stats()
	hits, misses := cache.Hits-s.cache0.Hits, cache.Misses-s.cache0.Misses
	out.add("serve.plan_cache_hit_frac", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	sent := float64(max(s.status.sent, 1))
	out.add("serve.rejected_frac", "ratio", float64(s.status.rejected)/sent)
	out.add("serve.timeout_frac", "ratio", float64(s.status.timedOut)/sent)
	for _, shape := range mixShapes {
		out.add("serve.shape."+shape+".p50_ms", "ms", median(s.shapeLat[shape])/f)
	}
	out.add("serve.latency_p90_ms", "ms", tailMs(rounds, 0.90))

	var failed error
	timeGet := func(path, accept string) float64 {
		return b.heavySeconds(func() {
			if err := get(s.handler, path, accept); err != nil {
				failed = err
			}
		}) * 1e3
	}
	out.add("obs.metrics_scrape_ms", "ms", timeGet("/metrics", "application/openmetrics-text"))
	out.add("obs.journal_fetch_ms", "ms", timeGet("/debug/requests", ""))
	out.add("obs.phase_sum_over_exec", "ratio", median(phaseOverExec))
	return failed
}

// runTraced is the separate traced run behind every per-layer metric. It
// first runs the named workload — quiet rounds alternating with rounds that
// record a span around every public call — and then climbs the ladder from
// the kernels up. The ladder's engine and serve rungs use the workload's own tables and
// server where it has them and build the reference ones (lineitem, the
// serve_mixed server) where it does not, so a traced run of any workload
// prints every per-layer metric.
func runTraced(name string, seed int64, sh shape, traceOut string) (*outcome, error) {
	one := sh
	one.setups = 1
	w, _, _, err := setUp(name, seed, one)
	if err != nil {
		return nil, err
	}
	defer w.close()
	out := &outcome{}

	run := newRunner(w)
	run.round(sh.warmup, nil)
	rec := newSpanRecorder()
	if s := servedOf(w); s != nil {
		s.startTracing()
	}
	// Quiet and traced rounds alternate, so that a machine that drifts
	// treats both alike; allocations are counted over the quiet ones only.
	quiet := make([]round, sh.tracedPairs)
	traced := make([]round, sh.tracedPairs)
	var quietWall time.Duration
	var allocBytes, allocs, gcs uint64
	for i := range quiet {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		quiet[i] = run.round(sh.tracedLen, nil)
		runtime.ReadMemStats(&m1)
		quietWall += quiet[i].wall
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs
		gcs += uint64(m1.NumGC - m0.NumGC)
		traced[i] = run.round(sh.tracedLen, rec)
	}
	tally := func(rounds []round) (ops int64) {
		for i := range rounds {
			ops += int64(rounds[i].ops())
			out.failed += rounds[i].failed
		}
		out.attempted += ops
		return ops
	}
	quietOps := tally(quiet)
	if quietOps == 0 || tally(traced) == 0 {
		return nil, fmt.Errorf("%s: a quiet or a traced phase completed no operation", name)
	}

	// Bottom up: kernels, encoder, storage, parser.
	kernels := kernelMetrics(&out.report, sh.probe, seed)
	encodingMetrics(&out.report, sh.probe, seed)

	// The engine rungs need lineitem, the runs table and the six queries.
	ref, err := referenceFor(w, sh.sz, seed)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if err := storageMetrics(&out.report, sh.probe, sh.sz.ingest, seed, ref.q1.tbl); err != nil {
		return nil, err
	}
	sqlMetrics(&out.report, sh.probe)
	if err := engineMetrics(&out.report, sh.probe, ref.q1, ref.shapes, kernels); err != nil {
		return nil, err
	}
	if err := costmodelMetrics(&out.report, ref.q1, ref.shapes); err != nil {
		return nil, err
	}
	servedRounds := traced
	if ref.server != nil {
		// Not a serve workload: a short traced serve_mixed stands in.
		ref.server.startTracing()
		sr := newRunner(ref.server)
		sr.round(sh.tracedLen, nil)
		servedRounds = make([]round, sh.tracedPairs)
		for i := range servedRounds {
			servedRounds[i] = sr.round(sh.tracedLen, rec)
		}
		tally(servedRounds)
	}
	if err := serveMetrics(&out.report, sh.probe, ref.served, servedRounds); err != nil {
		return nil, err
	}

	ops := float64(quietOps)
	out.add("runtime.alloc_bytes_per_op", "B", float64(allocBytes)/ops)
	out.add("runtime.allocs_per_op", "count", float64(allocs)/ops)
	out.add("runtime.gc_cycles_per_s", "1/s", float64(gcs)/quietWall.Seconds())
	out.add("runtime.peak_rss_mb", "MiB", peakRSSMiB())
	// What the machine did to the run, uncorrected, so that a busy box stays
	// visible.
	out.add("harness.interference_factor", "ratio", median(perRound(quiet, roundFactor)))
	out.add("harness.quiet_round_frac", "ratio", quietFrac(quiet))
	out.add("harness.latency_p50_ms.median_round", "ms", median(perRound(quiet, rawP50ms)))
	out.add("harness.ops_per_s.median_round", "1/s", median(perRound(quiet, rawOpsPerSec)))
	out.add("harness.ops_measured", "count", ops)
	out.add("harness.trace_overhead_frac", "ratio",
		median(perRound(traced, roundP50ms))/median(perRound(quiet, roundP50ms))-1)

	if traceOut != "" {
		if err := writeTraceFile(rec, traceOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reference is what the ladder's upper rungs run on.
type reference struct {
	q1     *scanQuery
	shapes []*scanQuery
	served *served     // the serve workload whose journal is read
	server *serveMixed // set when it had to be built for the ladder
}

func (r *reference) close() {
	if r.server != nil {
		r.server.close()
	}
}

func servedOf(w workload) *served {
	switch w := w.(type) {
	case *serveMixed:
		return &w.served
	case *serveLight:
		return &w.served
	}
	return nil
}

// referenceFor takes lineitem, the prepared queries and the server from the
// workload where it has them, and builds the rest.
func referenceFor(w workload, sz sizes, seed int64) (*reference, error) {
	ref := &reference{served: servedOf(w)}
	var lineitem *table.Table
	switch w := w.(type) {
	case *q1Scan:
		ref.q1, lineitem = w.q, w.q.tbl
	case *filterScan:
		ref.shapes, lineitem = w.shapes, w.shapes[0].tbl
	case *serveMixed:
		lineitem = w.tbl
	}
	var err error
	if lineitem == nil {
		if lineitem, err = genLineitem(sz.lineitem, seed); err != nil {
			return nil, err
		}
	}
	if ref.q1 == nil {
		if ref.q1, err = prepare("q1", lineitem, tpch.Q1()); err != nil {
			return nil, err
		}
		if err := ref.q1.verify(); err != nil {
			return nil, err
		}
	}
	if ref.shapes == nil {
		fs := &filterScan{}
		if err := fs.setupOn(lineitem, sz.runs, seed); err != nil {
			return nil, err
		}
		if err := fs.verify(); err != nil {
			return nil, err
		}
		ref.shapes = fs.shapes
	}
	if ref.served == nil {
		ref.server = &serveMixed{}
		if err := ref.server.start(lineitem); err != nil {
			return nil, err
		}
		if err := ref.server.verify(); err != nil {
			ref.server.close()
			return nil, err
		}
		ref.served = &ref.server.served
	}
	return ref, nil
}
