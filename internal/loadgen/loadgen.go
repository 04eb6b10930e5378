// Package loadgen drives concurrent mixed-query load at a serve /query
// endpoint and summarizes what came back: client-observed p50/p95/p99
// latency, scans/sec and rows/sec throughput, and the admission outcomes
// (accepted, 429-rejected, deadline-exceeded). It is the harness behind
// `bipie-bench serve` and the serving acceptance tests.
//
// The generator is closed-loop: Concurrency workers each keep exactly one
// request in flight, so the offered in-flight load equals the worker
// count for the whole run — the saturation story (does p99 hold at 1000
// in-flight queries?) is read directly off the configuration.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bipie/internal/obs"
	"bipie/internal/serve"
)

// Config tunes one load run.
type Config struct {
	// URL is the /query endpoint to drive over real HTTP.
	URL string
	// Handler, when non-nil, is driven in-process instead of URL — no
	// sockets, so tests can hold thousands of in-flight requests without
	// touching file-descriptor limits.
	Handler http.Handler
	// Client issues the HTTP requests in URL mode; nil builds one whose
	// connection pool matches Concurrency.
	Client *http.Client
	// Concurrency is the closed-loop worker count; <= 0 means 64.
	Concurrency int
	// Duration bounds the run; 0 with Requests == 0 means 5s. Workers
	// stop issuing when it elapses but drain their in-flight request.
	Duration time.Duration
	// Requests caps total issued requests; 0 means duration-bound only.
	Requests int64
	// Queries is the mix, dealt round-robin across workers; required.
	Queries []string
	// TimeoutMS is the per-query server deadline sent in each request; 0
	// leaves the server default.
	TimeoutMS int64
}

// Summary is one run's aggregate outcome.
type Summary struct {
	Requests           int64 // issued and completed (any status)
	OK                 int64 // HTTP 200
	Rejected           int64 // HTTP 429 (queue overflow)
	Timeouts           int64 // HTTP 504 (deadline exceeded)
	Errors             int64 // transport failures and every other status (incl. 5xx)
	RowsScanned        int64 // summed from successful responses
	PeakInFlight       int64 // max concurrently outstanding requests observed
	Elapsed            time.Duration
	P50, P95, P99, Max time.Duration
	// WorstID is the slowest successful request's ID (canonical hex) —
	// the key into the server's /debug/requests journal. WorstStages is
	// that request's server-side stage breakdown, fetched from the
	// journal after the run (empty when the entry already aged out of the
	// ring or the fetch failed).
	WorstID     string
	WorstStages string
}

// ScansPerSec is completed-query throughput: successful scans per second
// of wall time.
func (s *Summary) ScansPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.OK) / s.Elapsed.Seconds()
}

// RowsPerSec is scanned-row throughput across successful queries — the
// decode-bandwidth view of the same run: latency can look fine while
// rows/sec says the scan kernels are saturated.
func (s *Summary) RowsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.RowsScanned) / s.Elapsed.Seconds()
}

// Run executes the configured load and blocks until every worker has
// drained. The context cancels the run early (in-flight requests are
// still drained and counted).
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: no queries configured")
	}
	if (cfg.URL == "") == (cfg.Handler == nil) {
		return nil, fmt.Errorf("loadgen: configure exactly one of URL or Handler")
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 64
	}
	duration := cfg.Duration
	if duration <= 0 && cfg.Requests <= 0 {
		duration = 5 * time.Second
	}
	do := cfg.handlerDoer()
	if cfg.Handler == nil {
		do = cfg.httpDoer(conc)
	}

	var stopped atomic.Bool
	if duration > 0 {
		t := time.AfterFunc(duration, func() { stopped.Store(true) })
		defer t.Stop()
	}
	var (
		issued, inflight, peak            atomic.Int64
		okN, rejN, toN, errN, rows, total atomic.Int64
		wg                                sync.WaitGroup
	)
	lats := make([][]time.Duration, conc)
	// Per-worker worst request (latency + server-assigned ID), merged
	// after the run: no cross-worker coordination on the hot path.
	worstLat := make([]time.Duration, conc)
	worstID := make([]string, conc)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stopped.Load() && ctx.Err() == nil; i++ {
				if cfg.Requests > 0 && issued.Add(1) > cfg.Requests {
					return
				}
				q := cfg.Queries[i%len(cfg.Queries)]
				cur := inflight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				t0 := time.Now()
				status, resp, err := do(ctx, q)
				lat := time.Since(t0)
				inflight.Add(-1)
				total.Add(1)
				switch {
				case err != nil:
					errN.Add(1)
				case status == http.StatusOK:
					okN.Add(1)
					rows.Add(resp.RowsScanned)
					lats[w] = append(lats[w], lat)
					if lat > worstLat[w] {
						worstLat[w] = lat
						worstID[w] = resp.RequestID
					}
				case status == http.StatusTooManyRequests:
					rejN.Add(1)
				case status == http.StatusGatewayTimeout:
					toN.Add(1)
				default:
					errN.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	sum := &Summary{
		Requests:     total.Load(),
		OK:           okN.Load(),
		Rejected:     rejN.Load(),
		Timeouts:     toN.Load(),
		Errors:       errN.Load(),
		RowsScanned:  rows.Load(),
		PeakInFlight: peak.Load(),
		Elapsed:      time.Since(start),
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		sum.P50 = all[len(all)*50/100]
		sum.P95 = all[len(all)*95/100]
		sum.P99 = all[len(all)*99/100]
		sum.Max = all[len(all)-1]
	}
	for w := range worstLat {
		if worstID[w] != "" && worstLat[w] >= sum.Max {
			sum.WorstID = worstID[w]
		}
	}
	if sum.WorstID != "" {
		sum.WorstStages = cfg.fetchStages(sum.WorstID)
	}
	return sum, nil
}

// journalSpan is the slice of the /debug/requests entry the report cares
// about: the serving-stage breakdown of the worst request.
type journalSpan struct {
	Shape    string  `json:"shape"`
	ParseMS  float64 `json:"parse_ms"`
	PlanMS   float64 `json:"plan_ms"`
	QueueMS  float64 `json:"queue_ms"`
	ExecMS   float64 `json:"exec_ms"`
	EncodeMS float64 `json:"encode_ms"`
	TotalMS  float64 `json:"total_ms"`
	Cached   bool    `json:"cached_plan"`
}

// fetchStages pulls one request's journal entry from the server that ran
// it and renders the stage breakdown. Best-effort: any failure (route not
// mounted, entry aged out of the ring) degrades to "".
func (cfg Config) fetchStages(id string) string {
	body, ok := cfg.fetchJournal(id)
	if !ok {
		return ""
	}
	var sp journalSpan
	if err := json.Unmarshal(body, &sp); err != nil {
		return ""
	}
	return fmt.Sprintf("shape %s cached=%v: parse %.3fms + queue %.3fms + plan %.3fms + exec %.3fms + encode %.3fms = %.3fms",
		sp.Shape, sp.Cached, sp.ParseMS, sp.QueueMS, sp.PlanMS, sp.ExecMS, sp.EncodeMS, sp.TotalMS)
}

func (cfg Config) fetchJournal(id string) ([]byte, bool) {
	if cfg.Handler != nil {
		req, err := http.NewRequest(http.MethodGet, "/debug/requests?id="+id, nil)
		if err != nil {
			return nil, false
		}
		rec := &memResponse{code: http.StatusOK, header: make(http.Header)}
		cfg.Handler.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			return nil, false
		}
		return rec.body.Bytes(), true
	}
	// URL mode: the journal lives next to the /query endpoint.
	base := strings.TrimSuffix(cfg.URL, "/query")
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	hr, err := client.Get(base + "/debug/requests?id=" + id)
	if err != nil {
		return nil, false
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, hr.Body)
		return nil, false
	}
	body, err := io.ReadAll(hr.Body)
	if err != nil {
		return nil, false
	}
	return body, true
}

// doer issues one query and classifies the reply.
type doer func(ctx context.Context, query string) (status int, resp *serve.QueryResponse, err error)

// httpDoer drives a real endpoint; connections are pooled to the worker
// count so a closed loop reuses sockets instead of churning them.
func (cfg Config) httpDoer(conc int) doer {
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conc,
			MaxIdleConnsPerHost: conc,
		}}
	}
	return func(ctx context.Context, query string) (int, *serve.QueryResponse, error) {
		body, err := json.Marshal(serve.QueryRequest{Query: query, TimeoutMS: cfg.TimeoutMS})
		if err != nil {
			return 0, nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		hr, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer func() {
			_, _ = io.Copy(io.Discard, hr.Body) // drain for keep-alive
			hr.Body.Close()
		}()
		if hr.StatusCode != http.StatusOK {
			return hr.StatusCode, nil, nil
		}
		var resp serve.QueryResponse
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			return hr.StatusCode, nil, err
		}
		return hr.StatusCode, &resp, nil
	}
}

// handlerDoer dispatches straight into an http.Handler with an in-memory
// response writer — the hermetic mode tests use to hold thousands of
// requests in flight without sockets.
func (cfg Config) handlerDoer() doer {
	return func(ctx context.Context, query string) (int, *serve.QueryResponse, error) {
		body, err := json.Marshal(serve.QueryRequest{Query: query, TimeoutMS: cfg.TimeoutMS})
		if err != nil {
			return 0, nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/query", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		rec := &memResponse{code: http.StatusOK, header: make(http.Header)}
		cfg.Handler.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			return rec.code, nil, nil
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
			return rec.code, nil, err
		}
		return rec.code, &resp, nil
	}
}

// memResponse is the minimal in-memory http.ResponseWriter behind
// handlerDoer.
type memResponse struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(code int)        { m.code = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// Publish reports the summary into a metrics registry: rates and
// percentiles as gauges (latest run wins), outcome counts as counters
// (accumulating across runs).
func (s *Summary) Publish(r *obs.Registry) {
	r.Gauge("loadgen.p50_ms").Set(float64(s.P50) / float64(time.Millisecond))
	r.Gauge("loadgen.p95_ms").Set(float64(s.P95) / float64(time.Millisecond))
	r.Gauge("loadgen.p99_ms").Set(float64(s.P99) / float64(time.Millisecond))
	r.Gauge("loadgen.scans_per_sec").Set(s.ScansPerSec())
	r.Gauge("loadgen.rows_per_sec").Set(s.RowsPerSec())
	r.Gauge("loadgen.peak_inflight").Set(float64(s.PeakInFlight))
	r.Counter("loadgen.requests").Add(s.Requests)
	r.Counter("loadgen.ok").Add(s.OK)
	r.Counter("loadgen.rejected").Add(s.Rejected)
	r.Counter("loadgen.timeouts").Add(s.Timeouts)
	r.Counter("loadgen.errors").Add(s.Errors)
}

// Format renders the human-readable report.
func (s *Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests        %d (%d ok, %d rejected 429, %d timeout 504, %d errors)\n",
		s.Requests, s.OK, s.Rejected, s.Timeouts, s.Errors)
	fmt.Fprintf(&b, "elapsed         %v, peak in-flight %d\n", s.Elapsed.Round(time.Millisecond), s.PeakInFlight)
	fmt.Fprintf(&b, "latency         p50 %v  p95 %v  p99 %v  max %v\n",
		s.P50.Round(10*time.Microsecond), s.P95.Round(10*time.Microsecond),
		s.P99.Round(10*time.Microsecond), s.Max.Round(10*time.Microsecond))
	fmt.Fprintf(&b, "throughput      %.1f scans/sec, %.3g rows/sec\n", s.ScansPerSec(), s.RowsPerSec())
	if s.WorstID != "" {
		fmt.Fprintf(&b, "worst request   id %s (%v client-observed)\n", s.WorstID, s.Max.Round(10*time.Microsecond))
		if s.WorstStages != "" {
			fmt.Fprintf(&b, "  server stages %s\n", s.WorstStages)
		}
	}
	return b.String()
}

// TPCHMix is the standard serving mix over a lineitem table: the Q1
// group-by, a Q6-shaped pure filtered sum, and a string-dictionary
// filter — three queries stressing the grouped, span, and dict-domain
// engine paths.
func TPCHMix(tbl string) []string {
	return []string{
		"SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice * (100 - l_discount)), avg(l_discount), count(*) " +
			"FROM " + tbl + " WHERE l_shipdate <= 2436 GROUP BY l_returnflag, l_linestatus",
		"SELECT sum(l_extendedprice * l_discount) FROM " + tbl +
			" WHERE l_shipdate <= 2436 AND l_discount >= 5 AND l_quantity < 24",
		"SELECT count(*), sum(l_extendedprice) FROM " + tbl +
			" WHERE l_returnflag IN ('A', 'R')",
	}
}

// EventsMix is the serving mix over the events demo table.
func EventsMix(tbl string) []string {
	return []string{
		"SELECT country, count(*), avg(latency_ms) FROM " + tbl + " GROUP BY country",
		"SELECT sum(bytes) FROM " + tbl + " WHERE status = 200",
		"SELECT device, count(*) FROM " + tbl + " WHERE country IN ('us', 'de') GROUP BY device",
	}
}
