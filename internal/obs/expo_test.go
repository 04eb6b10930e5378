package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the full text exposition, which /metrics
// serves only in its OpenMetrics form: family grouping, deterministic
// ordering, dotted-name sanitization, label-value escaping, _total counter
// samples, cumulative histogram rendering and the closing # EOF.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(7)
	r.CounterWith("serve.shape.requests", "shape", "b", "table", "t1").Add(2)
	r.CounterWith("serve.shape.requests", "shape", "a").Add(3)
	r.CounterWith("serve.shape.requests", "shape", `we"ird\pa`+"\nth").Add(1)
	r.Gauge("serve.inflight").Set(4)
	h := r.Histogram("serve.latency_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100) // overflow bucket

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE serve_inflight gauge
serve_inflight 4
# TYPE serve_latency_ms histogram
serve_latency_ms_bucket{le="1"} 1
serve_latency_ms_bucket{le="10"} 2
serve_latency_ms_bucket{le="+Inf"} 3
serve_latency_ms_sum 105.5
serve_latency_ms_count 3
# TYPE serve_requests counter
serve_requests_total 7
# TYPE serve_shape_requests counter
serve_shape_requests_total{shape="a"} 3
serve_shape_requests_total{shape="b",table="t1"} 2
serve_shape_requests_total{shape="we\"ird\\pa\nth"} 1
# EOF
`
	if got := b.String(); got != want {
		t.Errorf("WriteOpenMetrics mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("serve.latency_ms", []float64{1, 10})
	h.ObserveExemplar(5, 0xbeef)
	r.Counter("serve.ok").Inc()

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics output does not end in # EOF:\n%s", out)
	}
	if !strings.Contains(out, "serve_ok_total 1\n") {
		t.Errorf("OpenMetrics counters must expose a _total sample:\n%s", out)
	}
	// The 5ms observation lands in the le="10" bucket; its exemplar rides
	// on that bucket's line.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `serve_latency_ms_bucket{le="10"}`) {
			found = true
			if !strings.Contains(line, `# {request_id="beef"} 5 `) {
				t.Errorf("le=10 bucket line is missing its exemplar: %s", line)
			}
		}
	}
	if !found {
		t.Fatalf("no le=10 bucket line:\n%s", out)
	}
}

func TestObserveExemplarAllocFree(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{1, 10, 100})
	allocs := testing.AllocsPerRun(100, func() {
		h.ObserveExemplar(5, 42)
	})
	if allocs != 0 {
		t.Fatalf("ObserveExemplar allocates %.1f per call, want 0", allocs)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	cases := []struct {
		accept   string
		wantCT   string
		wantBody string
	}{
		{"application/openmetrics-text; version=1.0.0", "application/openmetrics-text; version=1.0.0; charset=utf-8", "# EOF"},
		// There is no Prometheus 0.0.4 text: a text/plain scraper gets JSON.
		{"text/plain; version=0.0.4", "application/json", `"c"`},
		{"", "application/json", `"c"`},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", "/metrics", nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("Accept %q: status %d", c.accept, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != c.wantCT {
			t.Errorf("Accept %q: Content-Type = %q, want %q", c.accept, ct, c.wantCT)
		}
		if !strings.Contains(rec.Body.String(), c.wantBody) {
			t.Errorf("Accept %q: body %.120q does not contain %q", c.accept, rec.Body.String(), c.wantBody)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"serve.latency_ms": "serve_latency_ms",
		"9lives":           "_9lives",
		"a:b-c d":          "a:b_c_d",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
