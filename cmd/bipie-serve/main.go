// Command bipie-serve is the query server, the one binary that serves
// HTTP: it builds (or loads) a table and serves the concurrent HTTP/JSON
// query endpoint with admission control. Load is measured by the
// repository benchmark (bash benchmark/run.sh --workload serve_mixed).
//
//	bipie-serve [-dataset tpch|events] [-rows N] [-load file.bip] [-addr :8080]
//	            [-workers N] [-queue N] [-timeout 30s] [-max-timeout 5m] [-cache 64]
//	            [-slow-query 100ms] [-journal 1024]
//
// Endpoints: POST /query ({"query": "SELECT ...", "timeout_ms": 500}),
// GET /metrics (JSON by default; OpenMetrics text for Accept:
// application/openmetrics-text), GET /healthz, GET /debug/requests (the
// last -journal requests with per-stage timings; ?id=<hex>&format=trace
// renders one request's stages as Chrome trace_event JSON), GET
// /debug/pprof/* (profiling, with executing queries labeled by shape and
// strategy). Queries beyond the worker pool wait in a bounded queue;
// beyond that the server answers 429. Requests slower than -slow-query
// log a structured JSON line to stderr. SIGINT/SIGTERM drain in-flight
// queries before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bipie/internal/datagen"
	"bipie/internal/serve"
	"bipie/internal/table"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bipie-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	dataset := flag.String("dataset", "tpch", "demo dataset: tpch or events")
	rows := flag.Int("rows", 1_000_000, "rows to generate")
	load := flag.String("load", "", "load a saved table instead of generating")
	addr := flag.String("addr", "localhost:8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "admission queue depth beyond the worker pool")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-requested deadlines")
	cacheCap := flag.Int("cache", serve.DefaultCacheCap, "plan cache capacity")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	slowQuery := flag.Duration("slow-query", serve.DefaultSlowQueryThreshold,
		"slow-query log threshold (negative disables; errors always log)")
	journal := flag.Int("journal", 0, "request-journal capacity behind /debug/requests (0 = default)")
	flag.Parse()
	if *slowQuery == 0 {
		// On the flag, 0 reads as "off"; Config reserves 0 for its default,
		// so map it to the explicit disable value.
		*slowQuery = -1
	}

	tbl, name, err := datagen.Demo(*dataset, *rows, *load)
	if err != nil {
		return err
	}
	fmt.Printf("table %q ready: %d rows, %d segments\n", name, tbl.Rows(), len(tbl.Segments()))

	srv := serve.New(map[string]*table.Table{name: tbl}, serve.Config{
		Workers:            *workers,
		Queue:              *queue,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		CacheCap:           *cacheCap,
		SlowQueryThreshold: *slowQuery,
		JournalSize:        *journal,
	})
	// Bind synchronously so an unusable address is this process's exit
	// error, not a log.Fatal from a background goroutine after the table
	// build already paid for itself.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Slow-client protection; WriteTimeout must outlast the worst
		// admitted query (queue wait + execution), so it derives from the
		// deadline ceiling instead of a guess.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *maxTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("serving /query, /metrics, /healthz, /debug/requests, /debug/pprof on http://%s (%d workers, queue %d, timeout %v, journal %d)\n",
		ln.Addr(), srv.Workers(), *queue, *timeout, srv.Journal().Cap())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err // listener failed underneath us
	case sig := <-sigc:
		fmt.Printf("%v: draining in-flight queries (budget %v)\n", sig, *drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	st := srv.Cache().Stats()
	fmt.Printf("drained cleanly; plan cache %d/%d entries, %d hits, %d misses; latency p50 %.2fms p99 %.2fms\n",
		st.Len, st.Cap, st.Hits, st.Misses, srv.Latency().Quantile(0.50), srv.Latency().Quantile(0.99))
	return nil
}
