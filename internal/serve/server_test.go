package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/sql"
	"bipie/internal/table"
)

// newTestServer serves one events table with the given config (tables
// filled in automatically).
func newTestServer(t *testing.T, rows int, cfg Config) (*Server, *table.Table) {
	t.Helper()
	tbl := eventsTable(t, rows)
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry() // keep test metrics out of the process registry
	}
	return New(map[string]*table.Table{"events": tbl}, cfg), tbl
}

func postQuery(t *testing.T, h http.Handler, req QueryRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestQueryEndpoint checks the wire result matches a direct engine
// execution: same columns, same rows, AVG as float.
func TestQueryEndpoint(t *testing.T) {
	srv, tbl := newTestServer(t, 3000, Config{})
	const src = "SELECT country, count(*), sum(bytes), avg(latency_ms) FROM events WHERE status = 200 GROUP BY country"
	w := postQuery(t, srv, QueryRequest{Query: src})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(tbl, st.Query, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantCols := append(append([]string(nil), want.GroupCols...), want.AggNames...)
	if fmt.Sprint(resp.Columns) != fmt.Sprint(wantCols) {
		t.Fatalf("columns %v, want %v", resp.Columns, wantCols)
	}
	if len(resp.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(resp.Rows), len(want.Rows))
	}
	for i, row := range resp.Rows {
		wr := want.Rows[i]
		if row[0] != wr.Keys[0] {
			t.Fatalf("row %d key %v, want %v", i, row[0], wr.Keys[0])
		}
		// JSON round-trips numbers as float64.
		if int64(row[1].(float64)) != wr.Stats[0].Count {
			t.Fatalf("row %d count %v, want %d", i, row[1], wr.Stats[0].Count)
		}
		if int64(row[2].(float64)) != wr.Stats[1].Sum {
			t.Fatalf("row %d sum %v, want %d", i, row[2], wr.Stats[1].Sum)
		}
		if row[3].(float64) != wr.Avg(2) {
			t.Fatalf("row %d avg %v, want %v", i, row[3], wr.Avg(2))
		}
	}
	if resp.RowsScanned != int64(tbl.Rows()) {
		t.Fatalf("rows_scanned %d, want %d", resp.RowsScanned, tbl.Rows())
	}
	if resp.CachedPlan {
		t.Fatal("first execution reported a cached plan")
	}
	if w2 := postQuery(t, srv, QueryRequest{Query: src}); w2.Code != http.StatusOK {
		t.Fatalf("second run status %d", w2.Code)
	} else {
		var r2 QueryResponse
		if err := json.Unmarshal(w2.Body.Bytes(), &r2); err != nil {
			t.Fatal(err)
		}
		if !r2.CachedPlan {
			t.Fatal("second execution missed the plan cache")
		}
	}
}

// A string predicate on a dictionary wider than a byte is served, not a
// panic in a scan goroutine that takes the process down; and the server
// keeps serving afterwards.
func TestWideDictionaryQueryServes(t *testing.T) {
	tbl, err := table.New(table.Schema{{Name: "s", Type: table.String}, {Name: "x", Type: table.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tbl.AppendRow(fmt.Sprintf("k%03d", i%300), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Flush()
	srv := New(map[string]*table.Table{"t": tbl}, Config{Registry: obs.NewRegistry()})
	for _, src := range []string{
		"SELECT count(*) FROM t WHERE s IN ('k001')",
		"SELECT count(*) FROM t WHERE s <> 'k001' OR x < 5",
		"SELECT count(*) FROM t",
	} {
		w := postQuery(t, srv, QueryRequest{Query: src})
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", src, w.Code, w.Body.String())
		}
	}
	var resp QueryResponse
	w := postQuery(t, srv, QueryRequest{Query: "SELECT count(*) FROM t WHERE s IN ('k001')"})
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].(float64) != 10 {
		t.Fatalf("rows %v, want one count of 10", resp.Rows)
	}
}

// TestQueryErrors maps failure classes to statuses: method, body, parse,
// unknown table, plan.
func TestQueryErrors(t *testing.T) {
	srv, _ := newTestServer(t, 200, Config{})
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"method", func() *httptest.ResponseRecorder {
			r := httptest.NewRequest(http.MethodGet, "/query", nil)
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			return w
		}, http.StatusMethodNotAllowed},
		{"body", func() *httptest.ResponseRecorder {
			r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{not json"))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			return w
		}, http.StatusBadRequest},
		{"parse", func() *httptest.ResponseRecorder {
			return postQuery(t, srv, QueryRequest{Query: "SELEC nothing"})
		}, http.StatusBadRequest},
		{"table", func() *httptest.ResponseRecorder {
			return postQuery(t, srv, QueryRequest{Query: "SELECT count(*) FROM nosuch"})
		}, http.StatusNotFound},
		{"plan", func() *httptest.ResponseRecorder {
			return postQuery(t, srv, QueryRequest{Query: "SELECT sum(nosuchcol) FROM events"})
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := tc.do()
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not JSON ErrorResponse", tc.name, w.Body.String())
		}
	}
}

// TestQueueOverflow429 pins the admission bound: with the single worker
// slot held and the queue full, the next request is rejected with 429
// immediately, and the queued requests still complete once the slot
// frees.
func TestQueueOverflow429(t *testing.T) {
	srv, _ := newTestServer(t, 500, Config{Workers: 1, Queue: 2})
	srv.sem <- struct{}{} // occupy the only worker slot
	const src = "SELECT count(*) FROM events"

	// Admission bound is workers+queue = 3 in-flight requests; the held
	// worker slot does not count, so three requests fill the budget.
	var wg sync.WaitGroup
	codes := make([]int, 3)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postQuery(t, srv, QueryRequest{Query: src})
			codes[i] = w.Code
		}(i)
	}
	waitFor(t, func() bool { return srv.InFlight() == 3 })

	w := postQuery(t, srv, QueryRequest{Query: src, TimeoutMS: 60_000})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if w.Result().Header.Get("Retry-After") == "" {
		t.Fatal("429 reply missing Retry-After")
	}

	<-srv.sem // free the slot; the queued pair must drain
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("queued request %d: status %d, want 200", i, c)
		}
	}
}

// TestDeadlineExceededReturns pins the no-hang contract: a query whose
// deadline expires while it waits for a worker slot comes back as a 504
// carrying the context error, promptly.
func TestDeadlineExceededReturns(t *testing.T) {
	srv, _ := newTestServer(t, 500, Config{Workers: 1, Queue: 8})
	srv.sem <- struct{}{} // wedge the pool
	defer func() { <-srv.sem }()

	start := time.Now()
	w := postQuery(t, srv, QueryRequest{Query: "SELECT count(*) FROM events", TimeoutMS: 50})
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), context.DeadlineExceeded.Error()) {
		t.Fatalf("504 body %q does not carry the context error", w.Body.String())
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline reply took %v — that's a hang, not a timeout", elapsed)
	}
	if srv.InFlight() != 0 {
		t.Fatalf("in-flight count %d after timeout, want 0", srv.InFlight())
	}
}

// TestConcurrentSharedPrepared runs 8 goroutines through the full query
// path against one shared cached plan (meaningful under -race), then
// bounds the steady-state allocation cost of a served query: constant,
// not proportional to table size.
func TestConcurrentSharedPrepared(t *testing.T) {
	srv, tbl := newTestServer(t, 20_000, Config{Workers: 4, Queue: 64})
	const src = "SELECT country, count(*), sum(bytes) FROM events WHERE status = 200 GROUP BY country"
	ctx := context.Background()

	first, err := srv.Query(ctx, QueryRequest{Query: src})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := srv.Query(ctx, QueryRequest{Query: src})
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(resp.Rows) != fmt.Sprint(first.Rows) {
					t.Errorf("concurrent result diverged: %v vs %v", resp.Rows, first.Rows)
					return
				}
				if !resp.CachedPlan {
					t.Error("shared plan fell out of the cache mid-run")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := srv.Cache().Stats(); st.Len != 1 {
		t.Fatalf("plan cache holds %d entries for one statement", st.Len)
	}

	// Steady state: parse + cache hit + pooled scan + response assembly.
	// The engine's own per-batch path is zero-alloc (pinned by its
	// prepared tests); what remains here is per-request constant work —
	// far below one alloc per scanned row.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := srv.Query(ctx, QueryRequest{Query: src}); err != nil {
			t.Error(err)
		}
	})
	if allocs > 600 {
		t.Fatalf("served query allocates %.0f objects in steady state, want constant-bounded (≤600)", allocs)
	}
	if allocs > float64(tbl.Rows())/10 {
		t.Fatalf("served query allocates %.0f objects — scaling with the %d-row table", allocs, tbl.Rows())
	}
}

// TestGracefulShutdownDrains starts a real HTTP server, parks a batch of
// queries inside the admission queue, then shuts down while they are in
// flight: every parked request must still receive its 200 response.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, _ := newTestServer(t, 5_000, Config{Workers: 1, Queue: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }()

	srv.sem <- struct{}{} // hold the worker so requests pile up in flight
	const clients = 16
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := bytes.NewReader([]byte(`{"query": "SELECT count(*), sum(bytes) FROM events"}`))
			resp, err := http.Post(fmt.Sprintf("http://%s/query", ln.Addr()), "application/json", body)
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return srv.InFlight() == clients })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(ctx)
	}()
	// Shutdown is now waiting on the in-flight requests; release the
	// worker and let them drain through it.
	time.Sleep(20 * time.Millisecond)
	<-srv.sem
	wg.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d finished %d during graceful shutdown, want 200", i, c)
		}
	}
}

// TestWorkerPoolBoundsParallelism checks the pool cap: with Workers=2,
// no more than two queries execute simultaneously even with eight
// admitted.
func TestWorkerPoolBoundsParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 procs to observe concurrency")
	}
	srv, _ := newTestServer(t, 50_000, Config{Workers: 2, Queue: 64})
	const src = "SELECT country, device, count(*), sum(bytes), sum(latency_ms) FROM events GROUP BY country, device"
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Query(context.Background(), QueryRequest{Query: src}); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		if n := len(srv.sem); n > 2 {
			t.Fatalf("%d queries executing simultaneously, worker cap is 2", n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
