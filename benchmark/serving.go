package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"bipie/internal/engine"
	"bipie/internal/loadgen"
	"bipie/internal/obs"
	"bipie/internal/serve"
	"bipie/internal/sql"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// A request is one query a serve workload sends, with the bytes its reply's
// "rows" field must equal.
type request struct {
	shape string // q1, q6, dict or count
	span  string // the request's span name in a traced round
	body  []byte // the POST /query JSON body
	want  []byte // expected "rows", as the server's encoder writes them
	sql   string
	tbl   *table.Table
}

// reply is the part of a QueryResponse the benchmark reads. Rows stays raw
// so the comparison is byte for byte, with no float round trip.
type reply struct {
	Rows        json.RawMessage `json:"rows"`
	RowsScanned int64           `json:"rows_scanned"`
	RequestID   string          `json:"request_id"`
}

func newRequest(shape, src string, tbl *table.Table) (*request, error) {
	body, err := json.Marshal(serve.QueryRequest{Query: src})
	if err != nil {
		return nil, err
	}
	return &request{shape: shape, span: "request " + shape, body: body, sql: src, tbl: tbl}, nil
}

// expect computes the request's expected rows from the row-at-a-time
// oracle, laid out the way the server lays out a reply: group keys, then one
// value per aggregate (the exact average for AVG).
func (r *request) expect() error {
	st, err := sql.Parse(r.sql)
	if err != nil {
		return err
	}
	res, err := engine.RunNaive(r.tbl, st.Query)
	if err != nil {
		return err
	}
	rows := make([][]any, len(res.Rows))
	for i := range res.Rows {
		row := &res.Rows[i]
		vals := make([]any, 0, len(row.Keys)+len(row.Stats))
		for _, k := range row.Keys {
			vals = append(vals, k)
		}
		for a := range row.Stats {
			if res.AggKinds[a] == engine.Avg {
				vals = append(vals, row.Avg(a))
			} else {
				vals = append(vals, row.Value(st.Query, a))
			}
		}
		rows[i] = vals
	}
	r.want, err = json.Marshal(rows)
	return err
}

// check decodes a reply body and compares it with the expected rows.
func (r *request) check(status int, body []byte) (reply, bool) {
	var rep reply
	if status != http.StatusOK || json.Unmarshal(body, &rep) != nil {
		return rep, false
	}
	return rep, bytes.Equal(rep.Rows, r.want)
}

// newServer builds a serve.Server with the shipped defaults, minus the two
// things that would let the surroundings leak into the numbers: metrics go
// to a registry of the run's own, and the slow-query log goes nowhere.
func newServer(tables map[string]*table.Table) *serve.Server {
	return serve.New(tables, serve.Config{
		Registry:     obs.NewRegistry(),
		SlowQueryLog: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
}

// served is what both serve workloads share: the server, the request
// streams of the clients, and what the traced run reads back.
type served struct {
	srv     *serve.Server
	handler http.Handler
	streams [][]*request // per client, cycled
	reqs    []*request   // every distinct request, for the oracle check
	bytes   float64
	// send delivers one request and returns status and body.
	send func(client int, r *request) (int, []byte)

	// What the traced rounds note down for the serve rungs of the ladder.
	mu       sync.Mutex
	samples  []clientSample
	shapeLat map[string][]float64 // client latency in ms, by shape
	status   statusCounts
	cache0   serve.CacheStats // plan-cache counters when tracing began
}

type statusCounts struct{ sent, rejected, timedOut int64 }

// startTracing forgets what was noted so far and marks the plan cache's
// counters, so hit rates leave out set-up, oracle check and warm-up.
func (s *served) startTracing() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples, s.shapeLat, s.status = nil, map[string][]float64{}, statusCounts{}
	s.cache0 = s.srv.Cache().Stats()
}

// clientSample pairs a client-observed latency with the server's own total
// for the same request, from the journal.
type clientSample struct {
	clientNS, serverNS int64
}

func (s *served) clients() int         { return len(s.streams) }
func (s *served) bytesPerRow() float64 { return s.bytes }

func (s *served) verifyAll(tables []*table.Table) error {
	var bytes, rows int64
	for _, t := range tables {
		n, err := writtenBytes(t)
		if err != nil {
			return err
		}
		bytes += n
		rows += int64(t.Rows())
	}
	s.bytes = float64(bytes) / float64(rows)
	for _, r := range s.reqs {
		if err := r.expect(); err != nil {
			return fmt.Errorf("%s: oracle: %w", r.sql, err)
		}
		status, body := s.send(0, r)
		if _, ok := r.check(status, body); !ok {
			return fmt.Errorf("%s: status %d, reply %.200s, oracle has %.200s", r.sql, status, body, r.want)
		}
	}
	return nil
}

func (s *served) op(client, seq int, rec *spanRecorder) (int64, bool) {
	stream := s.streams[client]
	r := stream[seq%len(stream)]
	sp := rec.op(r.span)
	t0 := time.Now()
	status, body := s.send(client, r)
	lat := time.Since(t0)
	rec.end(sp)
	rep, ok := r.check(status, body)
	if rec != nil {
		s.note(r.shape, status, lat)
		if ok {
			s.journalSpans(rec, sp, rep.RequestID, int64(lat))
		}
	}
	return rep.RowsScanned, ok
}

func (s *served) note(shape string, status int, lat time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status.sent++
	switch status {
	case http.StatusTooManyRequests:
		s.status.rejected++
	case http.StatusGatewayTimeout:
		s.status.timedOut++
	case http.StatusOK:
		s.shapeLat[shape] = append(s.shapeLat[shape], float64(lat)/1e6)
	}
}

// journalSpans looks the request up in the server's journal and hangs its
// stage timings under the client's span. An entry can have left the ring
// already; then the request simply has no children.
func (s *served) journalSpans(rec *spanRecorder, parent spanID, id string, clientNS int64) {
	rid, err := obs.ParseRequestID(id)
	if err != nil {
		return
	}
	js, found := s.srv.Journal().Find(rid)
	if !found {
		return
	}
	s.mu.Lock()
	s.samples = append(s.samples, clientSample{clientNS, js.TotalNS})
	s.mu.Unlock()
	// Stages run back to back in this order; only their lengths are
	// journaled, so they are laid out from the server-side start.
	at := rec.since(js.Start)
	for _, st := range []struct {
		name string
		ns   int64
	}{{"serve.parse", js.ParseNS}, {"serve.queue", js.QueueNS}, {"serve.plan", js.PlanNS},
		{"serve.exec", js.ExecNS}, {"serve.encode", js.EncodeNS}} {
		rec.child(parent, st.name, at, st.ns)
		at += st.ns
	}
}

// serveMixed: real loopback HTTP against the full handler over the 2 M-row
// lineitem; nproc keep-alive closed-loop clients (callers that wait for
// each reply, like dashboards) deal loadgen.TPCHMix round-robin. The whole
// stack under concurrent heavy queries: admission, N×N scan goroutines,
// transport.
type serveMixed struct {
	served
	tbl  *table.Table
	http *http.Server
	cli  *http.Client
	done chan struct{}
}

var mixShapes = []string{"q1", "q6", "dict"}

func (w *serveMixed) setup(sz sizes, seed int64) error {
	tbl, err := genLineitem(sz.lineitem, seed)
	if err != nil {
		return err
	}
	return w.start(tbl)
}

// start serves an already built lineitem table.
func (w *serveMixed) start(tbl *table.Table) error {
	w.tbl = tbl
	w.srv = newServer(map[string]*table.Table{"lineitem": tbl})
	w.handler = w.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.http = &http.Server{Handler: w.handler, ReadHeaderTimeout: 5 * time.Second}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		_ = w.http.Serve(ln) // returns ErrServerClosed from close()
	}()
	n := nproc()
	w.cli = &http.Client{Transport: &http.Transport{MaxIdleConns: n, MaxIdleConnsPerHost: n}}
	url := fmt.Sprintf("http://%s/query", ln.Addr())
	w.send = func(_ int, r *request) (int, []byte) {
		resp, err := w.cli.Post(url, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return 0, nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, nil
		}
		return resp.StatusCode, body
	}
	w.reqs = nil
	for i, src := range loadgen.TPCHMix("lineitem") {
		r, err := newRequest(mixShapes[i], src, tbl)
		if err != nil {
			return err
		}
		w.reqs = append(w.reqs, r)
	}
	// Client c starts the round-robin at shape c, so at any moment the
	// clients are on different shapes.
	w.streams = make([][]*request, n)
	for c := range w.streams {
		for i := range w.reqs {
			w.streams[c] = append(w.streams[c], w.reqs[(c+i)%len(w.reqs)])
		}
	}
	return nil
}

func (w *serveMixed) verify() error { return w.verifyAll([]*table.Table{w.tbl}) }

func (w *serveMixed) close() {
	if w.http == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.http.Shutdown(ctx) // on timeout Close below ends what is left
	_ = w.http.Close()
	<-w.done
	w.cli.CloseIdleConnections()
	w.http = nil
}

const (
	lightStream = 8192 // requests per client before its stream repeats
	lightZipfS  = 1.1
)

// lightShapes are the four short statements serve_light issues per table:
// the three of the TPC-H mix and a two-aggregate low-selectivity count.
func lightShapes(tbl string) []struct{ shape, sql string } {
	mix := loadgen.TPCHMix(tbl)
	return []struct{ shape, sql string }{
		{"q1", mix[0]}, {"q6", mix[1]}, {"dict", mix[2]},
		{"count", "SELECT count(*), sum(l_quantity) FROM " + tbl + " WHERE l_shipdate <= 30"},
	}
}

// lightKeys draws one client's stream of plan-key indices: Zipf(1.1) over
// the (table, shape) pairs — 128 at full size — rank 0 the most popular.
func lightKeys(seed int64, client, keys int) []int {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	z := rand.NewZipf(rng, lightZipfS, 1, uint64(keys-1))
	out := make([]int, lightStream)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// serveLight: the handler driven in-process (no sockets: over loopback a
// sub-millisecond request measures the kernel's scheduler) with tiny scans,
// so the per-request software path — parse, plan cache, Prepare on a miss,
// journal, JSON — dominates. The same serve and engine layers as
// serve_mixed, used the opposite way.
type serveLight struct {
	served
	tables []*table.Table
}

// memResponse is the minimal in-memory http.ResponseWriter: one per client,
// reset per request.
type memResponse struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.hdr }
func (m *memResponse) WriteHeader(s int)   { m.status = s }
func (m *memResponse) Write(b []byte) (int, error) {
	return m.buf.Write(b)
}

func (m *memResponse) reset() {
	for k := range m.hdr {
		delete(m.hdr, k)
	}
	m.status = http.StatusOK
	m.buf.Reset()
}

// inProcess drives a handler without sockets.
func inProcess(h http.Handler, clients int) func(int, *request) (int, []byte) {
	resp := make([]*memResponse, clients)
	for i := range resp {
		resp[i] = &memResponse{hdr: http.Header{}}
	}
	return func(client int, r *request) (int, []byte) {
		m := resp[client]
		m.reset()
		req, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(r.body))
		if err != nil {
			return 0, nil
		}
		h.ServeHTTP(m, req)
		return m.status, m.buf.Bytes()
	}
}

func (w *serveLight) setup(sz sizes, seed int64) error {
	tables := map[string]*table.Table{}
	w.tables, w.reqs = nil, nil
	for i := 0; i < sz.lightTables; i++ {
		name := fmt.Sprintf("t%02d", i)
		tbl, err := tpch.Generate(tpch.GenOptions{Rows: sz.lightRows, Seed: seed*100 + int64(i)})
		if err != nil {
			return err
		}
		tables[name] = tbl
		w.tables = append(w.tables, tbl)
		for _, s := range lightShapes(name) {
			r, err := newRequest(s.shape, s.sql, tbl)
			if err != nil {
				return err
			}
			w.reqs = append(w.reqs, r)
		}
	}
	w.srv = newServer(tables)
	w.handler = w.srv.Handler()
	n := nproc()
	w.send = inProcess(w.handler, n)
	w.streams = make([][]*request, n)
	for c := range w.streams {
		for _, k := range lightKeys(seed, c, len(w.reqs)) {
			w.streams[c] = append(w.streams[c], w.reqs[k])
		}
	}
	return nil
}

func (w *serveLight) verify() error { return w.verifyAll(w.tables) }
func (w *serveLight) close()        {}
