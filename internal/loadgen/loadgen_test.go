package loadgen

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bipie/internal/datagen"
	"bipie/internal/obs"
	"bipie/internal/serve"
	"bipie/internal/sql"
	"bipie/internal/table"
)

func eventsServer(t *testing.T, rows int, cfg serve.Config) *serve.Server {
	t.Helper()
	tbl, err := datagen.Events(rows)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return serve.New(map[string]*table.Table{"events": tbl}, cfg)
}

// TestRunValidatesConfig pins the two misconfigurations Run must refuse.
func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{URL: "http://x/query"}); err == nil {
		t.Fatal("no queries: want error")
	}
	if _, err := Run(context.Background(), Config{Queries: []string{"SELECT count(*) FROM t"}}); err == nil {
		t.Fatal("neither URL nor Handler: want error")
	}
	cfg := Config{URL: "http://x/query", Handler: eventsServer(t, 10, serve.Config{}), Queries: []string{"q"}}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("both URL and Handler: want error")
	}
}

// TestHandlerModeHighConcurrency is the serving acceptance check: the
// hermetic handler mode sustains >=1000 concurrent in-flight queries
// against one shared server with zero failures, and the closed loop
// actually reaches that in-flight level (PeakInFlight proves it).
func TestHandlerModeHighConcurrency(t *testing.T) {
	// Journal sized to the run so the worst request is still in the ring
	// when the post-run fetch resolves its stage breakdown.
	srv := eventsServer(t, 2_000, serve.Config{Queue: 4096, JournalSize: 8192})
	sum, err := Run(context.Background(), Config{
		Handler:     srv.Handler(),
		Concurrency: 1100,
		Requests:    6_000,
		Queries:     EventsMix("events"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != 6_000 {
		t.Fatalf("completed %d requests, want 6000", sum.Requests)
	}
	if sum.OK != sum.Requests {
		t.Fatalf("only %d/%d ok (rejected %d, timeouts %d, errors %d)",
			sum.OK, sum.Requests, sum.Rejected, sum.Timeouts, sum.Errors)
	}
	if sum.PeakInFlight < 1000 {
		t.Fatalf("peak in-flight %d, want >= 1000", sum.PeakInFlight)
	}
	if sum.RowsScanned <= 0 {
		t.Fatal("no rows scanned")
	}
	if sum.ScansPerSec() <= 0 || sum.RowsPerSec() <= 0 {
		t.Fatalf("throughput not positive: %.1f scans/sec, %.1f rows/sec",
			sum.ScansPerSec(), sum.RowsPerSec())
	}
	if sum.P50 <= 0 || sum.P99 < sum.P50 || sum.Max < sum.P99 {
		t.Fatalf("latency percentiles inconsistent: p50 %v p99 %v max %v", sum.P50, sum.P99, sum.Max)
	}
	// The worst request is identified and resolved against the server's
	// journal: the run hands back not just "max was 40ms" but which
	// request that was and where its time went server-side.
	if sum.WorstID == "" {
		t.Fatal("run identified no worst request")
	}
	if _, err := obs.ParseRequestID(sum.WorstID); err != nil {
		t.Fatalf("worst request ID %q is not a canonical request ID: %v", sum.WorstID, err)
	}
	if !strings.Contains(sum.WorstStages, "exec") || !strings.Contains(sum.WorstStages, "queue") {
		t.Fatalf("worst-request stage breakdown missing: %q", sum.WorstStages)
	}
	if !strings.Contains(sum.Format(), "worst request") {
		t.Fatalf("Format omits the worst request:\n%s", sum.Format())
	}
}

// TestURLMode drives a real HTTP server end to end with a request cap.
func TestURLMode(t *testing.T) {
	srv := eventsServer(t, 1_000, serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	sum, err := Run(context.Background(), Config{
		URL:         hs.URL + "/query",
		Concurrency: 16,
		Requests:    200,
		Queries:     EventsMix("events"),
		TimeoutMS:   10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != 200 || sum.OK != 200 {
		t.Fatalf("requests %d ok %d, want 200/200 (errors %d)", sum.Requests, sum.OK, sum.Errors)
	}
	if sum.RowsScanned <= 0 {
		t.Fatal("no rows scanned over HTTP")
	}
}

// TestDurationBoundStops pins that a duration-bound run terminates and
// drains rather than hanging.
func TestDurationBoundStops(t *testing.T) {
	srv := eventsServer(t, 500, serve.Config{})
	done := make(chan struct{})
	var sum *Summary
	go func() {
		defer close(done)
		var err error
		sum, err = Run(context.Background(), Config{
			Handler:     srv.Handler(),
			Concurrency: 8,
			Duration:    100 * time.Millisecond,
			Queries:     EventsMix("events"),
		})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("duration-bound run did not stop")
	}
	if sum == nil || sum.OK == 0 {
		t.Fatal("run produced no successful queries")
	}
}

// TestPublish checks the registry view of a summary.
func TestPublish(t *testing.T) {
	reg := obs.NewRegistry()
	sum := &Summary{
		Requests: 100, OK: 90, Rejected: 6, Timeouts: 3, Errors: 1,
		RowsScanned: 9_000, PeakInFlight: 42, Elapsed: 2 * time.Second,
		P50: 5 * time.Millisecond, P99: 20 * time.Millisecond,
	}
	sum.Publish(reg)
	checks := map[string]float64{
		"loadgen.p50_ms":        5,
		"loadgen.p99_ms":        20,
		"loadgen.scans_per_sec": 45,
		"loadgen.rows_per_sec":  4_500,
		"loadgen.peak_inflight": 42,
	}
	for name, want := range checks {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Counter("loadgen.ok").Value(); got != 90 {
		t.Errorf("loadgen.ok = %d, want 90", got)
	}
	if got := reg.Counter("loadgen.rejected").Value(); got != 6 {
		t.Errorf("loadgen.rejected = %d, want 6", got)
	}
}

// TestMixesParse keeps the canned query mixes aligned with the SQL
// frontend: every query must parse.
func TestMixesParse(t *testing.T) {
	for _, q := range append(TPCHMix("lineitem"), EventsMix("events")...) {
		if _, err := sql.Parse(q); err != nil {
			t.Errorf("mix query does not parse: %q: %v", q, err)
		}
	}
}
