package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/sql"
	"bipie/internal/table"
)

// Config tunes a Server. The zero value serves with one executing query
// per CPU, a 1024-deep wait queue, a 30s default deadline, a fresh plan
// cache publishing metrics into obs.Default(), a 1024-entry request
// journal, and a 100ms slow-query threshold logging JSON lines to stderr.
type Config struct {
	// Workers bounds concurrently executing queries; <= 0 means
	// GOMAXPROCS. Each executing query already parallelizes across the
	// engine's own scan workers, so the pool exists to bound memory and
	// tail latency, not to fill cores.
	Workers int
	// Queue bounds admitted-but-waiting queries beyond Workers; <= 0
	// means 1024. A request arriving with Workers+Queue in flight is
	// rejected with 429 instead of joining an unbounded line.
	Queue int
	// DefaultTimeout is the per-request deadline when the request sets
	// none; <= 0 means 30s. The deadline covers queue wait and execution;
	// the engine observes it between batches through context
	// cancellation.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; <= 0 means 5m.
	MaxTimeout time.Duration
	// CacheCap is the plan-cache capacity; <= 0 means DefaultCacheCap.
	CacheCap int
	// Registry receives the serving metrics; nil means obs.Default().
	Registry *obs.Registry
	// JournalSize is the request-journal ring capacity (the last N
	// requests queryable at /debug/requests); <= 0 means
	// obs.DefaultJournalSize.
	JournalSize int
	// SlowQueryThreshold is the latency at which a request earns a
	// structured slow-query log line; 0 means 100ms, negative disables
	// slow-query logging (5xx outcomes are still logged).
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query and error lines; nil means a
	// JSON slog handler on stderr.
	SlowQueryLog *slog.Logger
}

// DefaultSlowQueryThreshold is the slow-query log threshold when Config
// leaves it zero.
const DefaultSlowQueryThreshold = 100 * time.Millisecond

// maxShapes bounds the per-shape labeled metric cardinality. Shapes
// beyond the cap share one overflow series labeled shape="_other", so a
// workload cycling through unbounded distinct literals cannot grow the
// registry without bound.
const maxShapes = 256

// otherShape is the overflow shape label.
const otherShape = "_other"

// Server executes SQL queries over a fixed set of tables behind an
// admission controller. It is an http.Handler (the POST /query endpoint,
// its one query entry point); Handler returns the full debug mux —
// /query, /metrics (content negotiated), /healthz, /debug/requests,
// /debug/pprof/*. Every served query plans with zero engine.Options and
// executes under its own pooled ScanTrace, whose per-phase breakdown
// lands in the request journal. All methods are safe for concurrent use.
type Server struct {
	tables map[string]*table.Table
	cache  *Cache
	reg    *obs.Registry

	workers        int
	queue          int
	defaultTimeout time.Duration
	maxTimeout     time.Duration

	// sem holds one token per executing query; admission is the cheaper
	// gate in front of it. inflight counts admitted requests (waiting or
	// executing); it increments only while below workers+queue.
	sem      chan struct{}
	inflight *obs.Gauge

	requests    *obs.Counter
	ok          *obs.Counter
	rejected    *obs.Counter
	timeouts    *obs.Counter
	failures    *obs.Counter
	rowsScanned *obs.Counter
	latency     *obs.Histogram

	// journal keeps the last N RequestSpans; traces pools per-request
	// ScanTraces so steady-state execution reuses their buffers.
	journal *obs.Journal
	traces  sync.Pool

	slowNS int64
	logger *slog.Logger

	// shapes caches per-shape state (labeled metrics, pprof labels, the
	// strategy label) keyed by shape hash, capped at maxShapes.
	shapeMu sync.RWMutex
	shapes  map[string]*shapeState
}

// shapeState is everything the serving path needs per query shape,
// resolved once when the shape first executes: the labeled metric handles
// (so the steady state never rebuilds series keys), the pprof label set
// attributing CPU samples to the shape, and the plan's aggregation
// strategy label.
type shapeState struct {
	strategy string
	labels   pprof.LabelSet
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// New builds a Server over tables (keyed by the name queries reference in
// FROM).
func New(tables map[string]*table.Table, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 1024
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	slowNS := int64(DefaultSlowQueryThreshold)
	if cfg.SlowQueryThreshold != 0 {
		slowNS = int64(cfg.SlowQueryThreshold)
		if slowNS < 0 {
			slowNS = 0 // disabled
		}
	}
	logger := cfg.SlowQueryLog
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return &Server{
		tables:         tables,
		cache:          NewCache(cfg.CacheCap),
		reg:            reg,
		workers:        cfg.Workers,
		queue:          cfg.Queue,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		sem:            make(chan struct{}, cfg.Workers),
		inflight:       reg.Gauge("serve.inflight"),
		requests:       reg.Counter("serve.requests"),
		ok:             reg.Counter("serve.ok"),
		rejected:       reg.Counter("serve.rejected"),
		timeouts:       reg.Counter("serve.timeouts"),
		failures:       reg.Counter("serve.errors"),
		rowsScanned:    reg.Counter("serve.rows_scanned"),
		latency:        reg.Histogram("serve.latency_ms", obs.ExpBuckets(0.05, 2, 20)),
		journal:        obs.NewJournal(cfg.JournalSize),
		traces:         sync.Pool{New: func() any { return obs.NewScanTrace(0) }},
		slowNS:         slowNS,
		logger:         logger,
		shapes:         make(map[string]*shapeState),
	}
}

// Cache returns the server's plan cache.
func (s *Server) Cache() *Cache { return s.cache }

// Latency returns the served-request latency histogram; Quantile on it
// gives the server-side p50/p99 in milliseconds.
func (s *Server) Latency() *obs.Histogram { return s.latency }

// Journal returns the request journal behind /debug/requests.
func (s *Server) Journal() *obs.Journal { return s.journal }

// Workers returns the resolved execution-slot count (Config.Workers, or
// its GOMAXPROCS default).
func (s *Server) Workers() int { return s.workers }

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is the SQL text.
	Query string `json:"query"`
	// TimeoutMS optionally overrides the server's default per-request
	// deadline, capped at the server's maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the success body: column names, then one array per
// result row holding group keys (strings) followed by aggregate values
// (int64, or float64 for AVG). RequestID is the journal key: feed it to
// /debug/requests?id= for the request's stage breakdown.
type QueryResponse struct {
	Columns     []string `json:"columns"`
	Rows        [][]any  `json:"rows"`
	RowsScanned int64    `json:"rows_scanned"`
	ElapsedUS   int64    `json:"elapsed_us"`
	CachedPlan  bool     `json:"cached_plan"`
	RequestID   string   `json:"request_id"`
}

// ErrorResponse is the body of every non-200 reply. RequestID identifies
// the failed request in the journal and logs (empty only when the failure
// precedes request-span setup, which does not happen on the query path).
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// httpError carries a status code with a query-processing failure.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errCode extracts the HTTP status from a query error.
func errCode(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.code
	}
	return http.StatusInternalServerError
}

// ServeHTTP is the POST /query endpoint.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	span := obs.RequestSpan{ID: obs.NewRequestID(), Start: time.Now()}
	if r.Method != http.MethodPost {
		s.fail(w, &span, errf(http.StatusMethodNotAllowed, "use POST with a JSON body"))
		return
	}
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, &span, errf(http.StatusBadRequest, "bad request body: %v", err))
		return
	}
	resp, err := s.query(r.Context(), req, &span)
	if err != nil {
		s.fail(w, &span, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t := time.Now()
	_ = json.NewEncoder(w).Encode(resp)
	span.EncodeNS = int64(time.Since(t))
	s.finish(&span, http.StatusOK, "")
}

// fail writes the JSON error reply, feeds the failure counters, and
// finishes the request span (journal + error log).
func (s *Server) fail(w http.ResponseWriter, span *obs.RequestSpan, err error) {
	code := errCode(err)
	switch code {
	case http.StatusTooManyRequests:
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
	case http.StatusGatewayTimeout:
		s.timeouts.Inc()
	default:
		s.failures.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The reply gets the first line; the journal and the error log get all
	// of it, a scan panic's stack (engine.ErrInternal) included.
	reply, _, _ := strings.Cut(err.Error(), "\n")
	t := time.Now()
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: reply, RequestID: obs.FormatRequestID(span.ID)})
	span.EncodeNS = int64(time.Since(t))
	s.finish(span, code, err.Error())
}

// query is ServeHTTP's serving pipeline, recording each stage's wall time
// into span as it goes: parse, admission-queue wait, plan-cache lookup
// (or Prepare), and execution under the request's own pooled ScanTrace
// with pprof labels attributing CPU samples to the query shape and
// strategy. Errors carry their HTTP status via httpError; ctx is the
// request's own context (cancelled when the client goes away), and the
// per-request deadline is layered on top of it.
func (s *Server) query(ctx context.Context, req QueryRequest, span *obs.RequestSpan) (*QueryResponse, error) {
	span.SQL = req.Query
	// Admission: one atomic increment decides; a request beyond
	// workers+queue is turned away immediately rather than joining an
	// unbounded line. The gauge doubles as the admission counter so
	// /metrics always shows the true in-flight count.
	if admitted := s.inflight.Add(1); admitted > float64(s.workers+s.queue) {
		s.inflight.Add(-1)
		return nil, errf(http.StatusTooManyRequests, "server at capacity: %d queries in flight (workers %d + queue %d)",
			int(admitted-1), s.workers, s.queue)
	}
	defer s.inflight.Add(-1)

	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	t := time.Now()
	st, err := sql.Parse(req.Query)
	span.ParseNS = int64(time.Since(t))
	if err != nil {
		return nil, errf(http.StatusBadRequest, "parse: %v", err)
	}
	tbl := s.tables[st.Table]
	if tbl == nil {
		return nil, errf(http.StatusNotFound, "unknown table %q", st.Table)
	}

	// Take a worker slot; the deadline covers the wait, so a query stuck
	// behind a full pool reports deadline exceeded instead of hanging —
	// and the journal records how long the line was.
	t = time.Now()
	select {
	case s.sem <- struct{}{}:
		span.QueueNS = int64(time.Since(t))
	case <-ctx.Done():
		span.QueueNS = int64(time.Since(t))
		return nil, errf(http.StatusGatewayTimeout, "queue wait: %v", ctx.Err())
	}
	defer func() { <-s.sem }()

	t = time.Now()
	key := st.String()
	p := s.cache.Get(key)
	cached := p != nil
	if p == nil {
		if p, err = engine.Prepare(tbl, st.Query, engine.Options{}); err != nil {
			span.PlanNS = int64(time.Since(t))
			return nil, errf(http.StatusBadRequest, "plan: %v", err)
		}
		p = s.cache.Put(key, p)
	}
	span.PlanNS = int64(time.Since(t))
	span.CacheHit = cached
	shape := shapeOf(key)
	span.Shape = shape
	ss := s.shapeState(shape, p)
	span.Strategy = ss.strategy

	// Execute under the request's own trace (pooled, span capture off) so
	// the per-phase cycle attribution is exactly this scan's, and under
	// pprof labels so CPU profiles slice by shape and strategy.
	tr := s.traces.Get().(*obs.ScanTrace)
	start := time.Now()
	var res *engine.Result
	var stats engine.ScanStats
	pprof.Do(ctx, ss.labels, func(ctx context.Context) {
		res, stats, err = p.RunTraced(ctx, tr)
	})
	elapsed := time.Since(start)
	span.ExecNS = int64(elapsed)
	span.Phases = tr.Phases()
	span.Units = tr.Units()
	s.traces.Put(tr)
	span.RowsScanned = stats.RowsTotal
	span.RowsSelected = stats.RowsSelected
	if err != nil {
		if ctx.Err() != nil {
			return nil, errf(http.StatusGatewayTimeout, "query: %v", ctx.Err())
		}
		return nil, errf(http.StatusInternalServerError, "query: %v", err)
	}
	s.ok.Inc()
	s.rowsScanned.Add(stats.RowsTotal)
	return buildResponse(st.Query, res, stats.RowsTotal, elapsed, cached, span.ID), nil
}

// finish closes out one request: total latency (with the request-ID
// exemplar on the latency histogram), per-shape series, the journal
// record, and the slow-query/error log line.
func (s *Server) finish(span *obs.RequestSpan, status int, errMsg string) {
	span.Status = status
	span.Err = errMsg
	span.TotalNS = int64(time.Since(span.Start))
	totalMS := float64(span.TotalNS) / 1e6
	if status == http.StatusOK {
		// The exemplar links this bucket observation to the journal: a
		// p99 spike on serve.latency_ms carries the request ID of a
		// request that landed in the tail bucket.
		s.latency.ObserveExemplar(totalMS, span.ID)
	}
	if span.Shape != "" {
		s.shapeMu.RLock()
		ss := s.shapes[span.Shape]
		if ss == nil {
			ss = s.shapes[otherShape]
		}
		s.shapeMu.RUnlock()
		if ss != nil {
			ss.requests.Inc()
			if status == http.StatusOK {
				ss.latency.Observe(totalMS)
			} else {
				ss.errors.Inc()
			}
		}
	}
	s.journal.Record(span)
	if status >= 500 || (s.slowNS > 0 && span.TotalNS >= s.slowNS) {
		s.logRequest(span)
	}
}

// logRequest emits the structured slow-query/error line: same request ID
// and shape key as the journal entry and the latency exemplar, the full
// stage breakdown, and the scan's per-phase cycles/row.
func (s *Server) logRequest(span *obs.RequestSpan) {
	msg := "slow query"
	level := slog.LevelWarn
	if span.Status >= 500 {
		msg = "query error"
		level = slog.LevelError
	}
	phases := make([]any, 0, int(obs.NumPhases))
	for p := range span.Phases {
		ps := span.Phases[p]
		if ps.Calls == 0 {
			continue
		}
		phases = append(phases, slog.Float64(obs.Phase(p).String(), ps.CyclesPerRow()))
	}
	s.logger.LogAttrs(context.Background(), level, msg,
		slog.String("request_id", obs.FormatRequestID(span.ID)),
		slog.String("shape", span.Shape),
		slog.String("sql", span.SQL),
		slog.Int("status", span.Status),
		slog.String("error", span.Err),
		slog.Bool("cached_plan", span.CacheHit),
		slog.String("strategy", span.Strategy),
		slog.Float64("total_ms", float64(span.TotalNS)/1e6),
		slog.Float64("parse_ms", float64(span.ParseNS)/1e6),
		slog.Float64("plan_ms", float64(span.PlanNS)/1e6),
		slog.Float64("queue_ms", float64(span.QueueNS)/1e6),
		slog.Float64("exec_ms", float64(span.ExecNS)/1e6),
		slog.Float64("encode_ms", float64(span.EncodeNS)/1e6),
		slog.Int64("rows_scanned", span.RowsScanned),
		slog.Int64("rows_selected", span.RowsSelected),
		slog.Group("phase_cycles_per_row", phases...),
	)
}

// shapeOf hashes a plan-cache key into the shape label: a short stable
// identifier tying together the per-shape metric series, the pprof
// labels, the journal entries, and the slow-query log lines of one
// normalized statement.
func shapeOf(key string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return fmt.Sprintf("%016x", h.Sum64())
}

// shapeState resolves the cached per-shape state, building it on the
// shape's first execution. Beyond maxShapes distinct shapes, new ones
// share the overflow state (shape="_other") so labeled-series cardinality
// stays bounded.
func (s *Server) shapeState(shape string, p *engine.Prepared) *shapeState {
	s.shapeMu.RLock()
	ss := s.shapes[shape]
	s.shapeMu.RUnlock()
	if ss != nil {
		return ss
	}
	s.shapeMu.Lock()
	defer s.shapeMu.Unlock()
	if ss = s.shapes[shape]; ss != nil {
		return ss
	}
	strategy := strategyLabel(p)
	if len(s.shapes) >= maxShapes {
		if ss = s.shapes[otherShape]; ss != nil {
			return ss
		}
		shape, strategy = otherShape, "mixed"
	}
	ss = &shapeState{
		strategy: strategy,
		labels:   pprof.Labels("shape", shape, "strategy", strategy),
		requests: s.reg.CounterWith("serve.shape.requests", "shape", shape),
		errors:   s.reg.CounterWith("serve.shape.errors", "shape", shape),
		latency:  s.reg.HistogramWith("serve.shape.latency_ms", obs.ExpBuckets(0.05, 2, 20), "shape", shape),
	}
	s.shapes[shape] = ss
	return ss
}

// strategyLabel summarizes a plan's aggregation strategies for the pprof
// label: the single strategy when every segment agrees, "mixed" when they
// differ, "none" for a planless (empty-table) query.
func strategyLabel(p *engine.Prepared) string {
	plans, err := p.Explain()
	if err != nil || len(plans) == 0 {
		return "none"
	}
	strategy := plans[0].Strategy
	for _, sp := range plans[1:] {
		if sp.Strategy != strategy {
			return "mixed"
		}
	}
	return strategy
}

// timeout resolves the effective per-request deadline.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.defaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.maxTimeout {
		d = s.maxTimeout
	}
	return d
}

// buildResponse flattens an engine result into the wire shape: group keys
// as strings, counts and sums as int64, averages as float64.
func buildResponse(q *engine.Query, res *engine.Result, rowsScanned int64, elapsed time.Duration, cached bool, id uint64) *QueryResponse {
	cols := append(append([]string(nil), res.GroupCols...), res.AggNames...)
	rows := make([][]any, len(res.Rows))
	for i := range res.Rows {
		r := &res.Rows[i]
		vals := make([]any, 0, len(cols))
		for _, k := range r.Keys {
			vals = append(vals, k)
		}
		for ai := range r.Stats {
			if res.AggKinds[ai] == engine.Avg {
				vals = append(vals, r.Avg(ai))
			} else {
				vals = append(vals, r.Value(q, ai))
			}
		}
		rows[i] = vals
	}
	return &QueryResponse{
		Columns:     cols,
		Rows:        rows,
		RowsScanned: rowsScanned,
		ElapsedUS:   int64(elapsed / time.Microsecond),
		CachedPlan:  cached,
		RequestID:   obs.FormatRequestID(id),
	}
}

// InFlight reports the number of admitted (queued or executing) queries;
// tests use it to observe the admission state.
func (s *Server) InFlight() int { return int(s.inflight.Value()) }
