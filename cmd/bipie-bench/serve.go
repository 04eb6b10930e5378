package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"bipie/internal/loadgen"
	"bipie/internal/obs"
	"bipie/internal/serve"
	"bipie/internal/table"
	"bipie/internal/tpch"
)

// runServe is the `bipie-bench serve` subcommand: it drives the standard
// mixed-query load (Q1, a Q6-shaped filtered sum, a string-dict filter)
// at a query server — an in-process one over a generated lineitem table
// by default, or an already-running endpoint via -url — and reports
// client-observed p50/p99 latency and scans/sec.
//
// It doubles as the CI smoke gate: the process exits non-zero when no
// query succeeded or any reply was a 5xx/transport failure.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	url := fs.String("url", "", "drive a running /query endpoint instead of an in-process server")
	rows := fs.Int("rows", 1<<20, "lineitem rows for the in-process server")
	conc := fs.Int("c", 256, "concurrent closed-loop clients")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	workers := fs.Int("workers", 0, "in-process server worker pool (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 2048, "in-process server admission queue depth")
	timeoutMS := fs.Int64("timeout-ms", 0, "per-query server deadline sent with each request (0 = server default)")
	tblName := fs.String("table", "lineitem", "table name the mix queries reference")
	obsCheck := fs.Bool("obs-check", false,
		"after the run, scrape /metrics (both text formats), /debug/requests and /debug/pprof/profile and fail on any non-200 or empty journal")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	cfg := loadgen.Config{
		URL:         *url,
		Concurrency: *conc,
		Duration:    *duration,
		Queries:     loadgen.TPCHMix(*tblName),
		TimeoutMS:   *timeoutMS,
	}
	var shutdown func() error
	if *url == "" {
		target, stop, err := startLocalServer(*rows, *workers, *queue)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		cfg.URL = target
		shutdown = stop
		fmt.Printf("in-process server on %s (%d lineitem rows)\n", target, *rows)
	}

	sum, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	sum.Publish(obs.Default())
	fmt.Print(sum.Format())

	if *obsCheck {
		if err := obsSmoke(cfg.URL); err != nil {
			fmt.Fprintln(os.Stderr, "serve: obs-check:", err)
			os.Exit(1)
		}
		fmt.Println("obs-check passed: /metrics (Prometheus + OpenMetrics), /debug/requests, /debug/pprof/profile")
	}

	if shutdown != nil {
		if err := shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
			os.Exit(1)
		}
		fmt.Println("server drained cleanly")
	}
	// Smoke gate: some throughput, zero 5xx (Errors counts transport
	// failures and every status outside 200/429/504).
	if sum.OK == 0 {
		fmt.Fprintln(os.Stderr, "serve: no query succeeded")
		os.Exit(1)
	}
	if sum.Errors > 0 {
		fmt.Fprintf(os.Stderr, "serve: %d errored replies\n", sum.Errors)
		os.Exit(1)
	}
}

// obsSmoke verifies the observability surface of the server that just
// took load: both text exposition formats on /metrics, a non-empty
// request journal, and a short CPU profile. Any non-200 (or an empty
// journal after thousands of served requests) is a hard failure — this is
// the CI gate that keeps the ops surface wired up.
func obsSmoke(queryURL string) error {
	base := strings.TrimSuffix(queryURL, "/query")
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path, accept string) (string, error) {
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			return "", err
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", fmt.Errorf("GET %s: read: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}

	prom, err := get("/metrics", "text/plain")
	if err != nil {
		return err
	}
	if !strings.Contains(prom, "# TYPE serve_latency_ms histogram") {
		return fmt.Errorf("/metrics (Prometheus) is missing the serve_latency_ms histogram")
	}
	om, err := get("/metrics", "application/openmetrics-text")
	if err != nil {
		return err
	}
	if !strings.Contains(om, "# EOF") {
		return fmt.Errorf("/metrics (OpenMetrics) is missing the # EOF terminator")
	}
	journal, err := get("/debug/requests", "")
	if err != nil {
		return err
	}
	if strings.TrimSpace(journal) == "" || strings.TrimSpace(journal) == "[]" {
		return fmt.Errorf("/debug/requests journal is empty after the load run")
	}
	if _, err := get("/debug/pprof/profile?seconds=1", ""); err != nil {
		return err
	}
	return nil
}

// startLocalServer generates a lineitem table and serves it on a loopback
// port; the returned stop drains in-flight queries.
func startLocalServer(rows, workers, queue int) (url string, stop func() error, err error) {
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: rows, Seed: 1})
	if err != nil {
		return "", nil, err
	}
	srv := serve.New(map[string]*table.Table{"lineitem": tbl}, serve.Config{
		Workers: workers,
		Queue:   queue,
		// Journal sized well past any smoke run so the worst request's
		// stage breakdown is still in the ring when the report fetches it.
		JournalSize: 1 << 16,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      6 * time.Minute,
	}
	go func() { _ = hs.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
	return fmt.Sprintf("http://%s/query", ln.Addr()), stop, nil
}
