package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"bipie/internal/obs"
)

// TestEndToEndTraceability walks the full observability chain the way an
// operator would: the latency histogram's exemplar on /metrics names a
// request ID, /debug/requests?id= resolves that ID to the stage breakdown
// (queue wait and per-phase scan attribution included), and the
// slow-query log line carries the same ID and shape key.
func TestEndToEndTraceability(t *testing.T) {
	var logBuf bytes.Buffer
	srv, _ := newTestServer(t, 3000, Config{
		SlowQueryThreshold: time.Nanosecond, // every request is "slow"
		SlowQueryLog:       slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	h := srv.Handler()

	w := postQuery(t, h, QueryRequest{Query: "SELECT country, count(*) FROM events WHERE status = 200 GROUP BY country"})
	if w.Code != http.StatusOK {
		t.Fatalf("query: status %d: %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID == "" {
		t.Fatal("response carries no request ID")
	}

	// 1. /metrics (OpenMetrics): the latency histogram's exemplar links a
	// bucket to this request.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mreq.Header.Set("Accept", "application/openmetrics-text")
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", mrec.Code)
	}
	exemplarRE := regexp.MustCompile(`serve_latency_ms_bucket\{le="[^"]+"\} \d+ # \{request_id="([0-9a-f]+)"\}`)
	m := exemplarRE.FindStringSubmatch(mrec.Body.String())
	if m == nil {
		t.Fatalf("/metrics has no serve_latency_ms exemplar:\n%s", mrec.Body.String())
	}
	if m[1] != resp.RequestID {
		t.Fatalf("exemplar request_id = %s, response request_id = %s", m[1], resp.RequestID)
	}

	// 2. /debug/requests?id=: the exemplar's ID resolves to the journaled
	// stage breakdown.
	jrec := httptest.NewRecorder()
	h.ServeHTTP(jrec, httptest.NewRequest(http.MethodGet, "/debug/requests?id="+resp.RequestID, nil))
	if jrec.Code != http.StatusOK {
		t.Fatalf("/debug/requests?id=%s: status %d: %s", resp.RequestID, jrec.Code, jrec.Body.String())
	}
	var span struct {
		ID       string  `json:"id"`
		Shape    string  `json:"shape"`
		Status   int     `json:"status"`
		Strategy string  `json:"strategy"`
		ParseMS  float64 `json:"parse_ms"`
		QueueMS  float64 `json:"queue_ms"`
		ExecMS   float64 `json:"exec_ms"`
		TotalMS  float64 `json:"total_ms"`
		Rows     int64   `json:"rows_scanned"`
		Phases   []struct {
			Phase        string  `json:"phase"`
			CyclesPerRow float64 `json:"cycles_per_row"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(jrec.Body.Bytes(), &span); err != nil {
		t.Fatal(err)
	}
	if span.ID != resp.RequestID || span.Status != http.StatusOK {
		t.Fatalf("journal span = %+v, want id %s status 200", span, resp.RequestID)
	}
	if span.Shape == "" || span.Strategy == "" {
		t.Fatalf("journal span is missing shape/strategy: %+v", span)
	}
	if span.ExecMS <= 0 || span.TotalMS < span.ExecMS || span.QueueMS < 0 {
		t.Fatalf("implausible stage breakdown: %+v", span)
	}
	if span.Rows != 3000 {
		t.Fatalf("rows_scanned = %d, want 3000", span.Rows)
	}
	if len(span.Phases) == 0 {
		t.Fatalf("journal span has no per-phase scan attribution: %+v", span)
	}

	// 3. The slow-query log line: same ID, same shape.
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("slow-query log is not one JSON line: %q", logBuf.String())
	}
	if line["request_id"] != resp.RequestID {
		t.Fatalf("log request_id = %v, want %s", line["request_id"], resp.RequestID)
	}
	if line["shape"] != span.Shape {
		t.Fatalf("log shape = %v, journal shape = %s", line["shape"], span.Shape)
	}
	if line["msg"] != "slow query" {
		t.Fatalf("log msg = %v, want slow query", line["msg"])
	}
	if _, ok := line["queue_ms"]; !ok {
		t.Fatalf("log line is missing the stage breakdown: %v", line)
	}
}

// TestSlowQueryLogThreshold: a negative threshold disables slow logging,
// and client errors (4xx) never log — the log is for operator-actionable
// events only.
func TestSlowQueryLogThreshold(t *testing.T) {
	var logBuf bytes.Buffer
	srv, _ := newTestServer(t, 200, Config{
		SlowQueryThreshold: -1,
		SlowQueryLog:       slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	if w := postQuery(t, srv, QueryRequest{Query: "SELECT count(*) FROM events"}); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if w := postQuery(t, srv, QueryRequest{Query: "SELEKT nope"}); w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if logBuf.Len() != 0 {
		t.Fatalf("disabled slow-query log still wrote: %s", logBuf.String())
	}
}

// TestErrorResponseCarriesRequestID: failures are traceable too — the
// error body names the request, and the journal holds its span.
func TestErrorResponseCarriesRequestID(t *testing.T) {
	srv, _ := newTestServer(t, 200, Config{})
	w := postQuery(t, srv, QueryRequest{Query: "SELECT count(*) FROM missing"})
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID == "" {
		t.Fatal("error response carries no request ID")
	}
	id, err := obs.ParseRequestID(er.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	span, ok := srv.Journal().Find(id)
	if !ok {
		t.Fatal("failed request is not in the journal")
	}
	if span.Status != http.StatusNotFound || span.Err == "" {
		t.Fatalf("journaled failure = %+v, want status 404 with an error", span)
	}
}

// TestDebugMuxRoutes pins the ops surface bipie-serve mounts: every route
// answers 200 (a one-second CPU profile included), the journal's
// ?id=&format=trace is the one per-request trace route, and /debug/trace
// is gone.
func TestDebugMuxRoutes(t *testing.T) {
	srv, _ := newTestServer(t, 200, Config{})
	h := srv.Handler()
	resp, err := serveQuery(h, "SELECT count(*) FROM events")
	if err != nil {
		t.Fatalf("query via mux: %v", err)
	}
	for _, path := range []string{"/healthz", "/metrics", "/debug/requests", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile?seconds=1"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, rec.Code)
		}
		if rec.Body.Len() == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests?id="+resp.RequestID+"&format=trace", nil))
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests?id=%s&format=trace: status %d: %s", resp.RequestID, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("per-request trace is not trace_event JSON: %v", err)
	}
	stages := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Args["id"] != resp.RequestID {
			t.Fatalf("per-request trace carries another request's event: %+v", e)
		}
		stages[e.Name] = true
	}
	if !stages["exec"] || !stages["queue-wait"] {
		t.Fatalf("per-request trace stages = %v, want queue-wait and exec", stages)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /debug/trace: status %d, want 404", rec.Code)
	}
}

// TestPerShapeMetrics: distinct query shapes get distinct labeled series;
// repeats of one shape accumulate into it.
func TestPerShapeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := newTestServer(t, 500, Config{Registry: reg})
	q1 := "SELECT count(*) FROM events"
	q2 := "SELECT country, count(*) FROM events GROUP BY country"
	for _, q := range []string{q1, q1, q2} {
		if w := postQuery(t, srv, QueryRequest{Query: q}); w.Code != http.StatusOK {
			t.Fatalf("query %q: status %d", q, w.Code)
		}
	}
	var b strings.Builder
	if err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	shapeLines := regexp.MustCompile(`(?m)^serve_shape_requests_total\{shape="[0-9a-f]{16}"\} (\d+)$`).FindAllStringSubmatch(b.String(), -1)
	if len(shapeLines) != 2 {
		t.Fatalf("want 2 per-shape request series, got %d:\n%s", len(shapeLines), b.String())
	}
	counts := map[string]bool{}
	for _, m := range shapeLines {
		counts[m[1]] = true
	}
	if !counts["1"] || !counts["2"] {
		t.Fatalf("per-shape counts = %v, want one series at 1 and one at 2", shapeLines)
	}
}
