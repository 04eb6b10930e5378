// Command bipie-sql is an interactive SQL shell over a generated demo
// dataset (or a previously saved table file), executing the supported
// aggregation query shape with the BIPie fused scan.
//
//	bipie-sql [-dataset tpch|events] [-rows N] [-load file.bip] [-save file.bip] [-http addr] ["QUERY"]
//
// With a query argument it runs once and exits; otherwise it reads queries
// from stdin, one per line. With -http it also serves the full query
// endpoint (POST /query, via internal/serve), the process metrics
// registry at /metrics, and the last \analyze trace (Chrome trace_event
// JSON) at /debug/trace.
//
// Queries are compiled with engine.Prepare and kept in a shared
// thread-safe LRU (internal/serve.Cache) keyed on the statement's
// rendered SQL, so a repeated query — from the shell or over HTTP —
// reuses its plan and pooled scan state instead of re-planning; \stats
// reports the cache's hit counts alongside the table statistics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"bipie/internal/costmodel"
	"bipie/internal/datagen"
	"bipie/internal/engine"
	"bipie/internal/obs"
	"bipie/internal/serve"
	"bipie/internal/sql"
	"bipie/internal/table"
)

// planCacheCap bounds the shell's prepared-statement LRU. Interactive
// sessions rotate among a handful of queries; a small cache captures them
// while keeping eviction scans trivial.
const planCacheCap = 16

// maxQueryLine caps one stdin query line. bufio.Scanner's default 64 KB
// ceiling silently ended the shell on a long generated IN-list; 4 MB
// covers anything a human or script plausibly pipes in, and overflow is
// now a reported error instead of a silent exit.
const maxQueryLine = 4 << 20

// shell is the interactive session state: the served table, the shared
// prepared-statement cache (the HTTP endpoint uses the same one), the
// output streams (swapped for buffers in tests), and the last \analyze
// trace (kept for the /debug/trace endpoint, which may read it from
// another goroutine).
type shell struct {
	tbl    *table.Table
	name   string
	cache  *serve.Cache
	out    io.Writer
	errOut io.Writer

	mu        sync.Mutex
	lastTrace *obs.ScanTrace
}

func newShell(tbl *table.Table, name string) *shell {
	return &shell{tbl: tbl, name: name, cache: serve.NewCache(planCacheCap), out: os.Stdout, errOut: os.Stderr}
}

// prepared returns a Prepared for the statement, from cache when the
// rendered SQL matches a previous query (its own or one served over
// HTTP).
func (s *shell) prepared(st *sql.Statement) (*engine.Prepared, error) {
	key := st.String()
	if p := s.cache.Get(key); p != nil {
		return p, nil
	}
	p, err := engine.Prepare(s.tbl, st.Query, engine.Options{})
	if err != nil {
		return nil, err
	}
	return s.cache.Put(key, p), nil
}

func main() {
	dataset := flag.String("dataset", "tpch", "demo dataset: tpch or events")
	rows := flag.Int("rows", 1_000_000, "rows to generate")
	load := flag.String("load", "", "load a saved table instead of generating")
	save := flag.String("save", "", "save the table to this file after loading/generating")
	httpAddr := flag.String("http", "", "serve /query, /metrics and /debug/trace on this address (e.g. localhost:8080)")
	flag.Parse()

	tbl, name, err := datagen.Demo(*dataset, *rows, *load)
	if err != nil {
		log.Fatal(err)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tbl.WriteTo(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved table to %s\n", *save)
	}
	fmt.Printf("table %q ready: %d rows, %d segments\n", name, tbl.Rows(), len(tbl.Segments()))
	sh := newShell(tbl, name)
	printSchema(sh.out, tbl)

	if *httpAddr != "" {
		// A bind failure surfaces here, to the shell, and the session
		// continues without HTTP — the table the user just paid to build
		// stays usable. (The old code log.Fatal'd from a goroutine.)
		shutdown, err := sh.startHTTP(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-http %s unavailable: %v (continuing without HTTP)\n", *httpAddr, err)
		} else {
			defer shutdown()
		}
	}

	if flag.NArg() > 0 {
		sh.run(strings.Join(flag.Args(), " "))
		return
	}
	fmt.Println(`enter queries (SELECT ... FROM ` + name + ` ...), \help for commands, blank line or ctrl-d to exit`)
	if err := sh.repl(os.Stdin); err != nil {
		fmt.Fprintf(os.Stderr, "reading input: %v\n", err)
		os.Exit(1)
	}
}

// repl reads queries from in, one per line, until EOF, a blank line, or a
// read error. Lines up to maxQueryLine are supported, and a scanner
// failure (an even longer line, an I/O error) is returned instead of
// being swallowed — the old loop dropped sc.Err() and made any >64 KB
// query look like a clean exit.
func (s *shell) repl(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64*1024), maxQueryLine)
	for {
		fmt.Fprint(s.out, "bipie> ")
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return err
			}
			return nil // EOF: clean exit
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			return nil
		}
		if strings.HasPrefix(line, `\`) {
			s.meta(line)
			continue
		}
		s.run(line)
	}
}

// startHTTP serves the full serve-layer surface (/query, /metrics,
// /debug/requests, /debug/pprof/*) next to the shell, with the shell's
// last \analyze trace plugged in as the /debug/trace source. The listener
// is bound synchronously so the caller sees bind errors; the server
// itself carries header/write timeouts so a stuck client cannot pin a
// connection forever.
func (s *shell) startHTTP(addr string) (shutdown func(), err error) {
	srv := serve.New(map[string]*table.Table{s.name: s.tbl}, serve.Config{
		Cache:       s.cache, // REPL and HTTP queries share one plan cache
		TraceSource: s.trace,
	})
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      6 * time.Minute, // outlasts the serve layer's deadline ceiling
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(s.errOut, "http server: %v\n", err)
		}
	}()
	fmt.Fprintf(s.out, "serving /query, /metrics, /debug/requests, /debug/trace and /debug/pprof on http://%s\n", ln.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}, nil
}

// meta handles backslash commands.
func (s *shell) meta(line string) {
	cmd, arg, _ := strings.Cut(line, " ")
	switch cmd {
	case `\stats`:
		fmt.Fprint(s.out, s.tbl.Stats().Format())
		st := s.cache.Stats()
		fmt.Fprintf(s.out, "plan cache: %d entries (cap %d), %d hits, %d misses\n",
			st.Len, st.Cap, st.Hits, st.Misses)
	case `\schema`:
		printSchema(s.out, s.tbl)
	case `\analyze`:
		s.analyze(strings.TrimSpace(arg))
	case `\metrics`:
		_ = obs.Default().WriteJSON(s.out)
	case `\profile`:
		s.printProfile(costmodel.Active())
	case `\calibrate`:
		s.calibrate()
	case `\help`:
		fmt.Fprintln(s.out, `commands:
  SELECT ...             run a query (count/sum/avg/min/max, WHERE, GROUP BY, HAVING, LIMIT)
  EXPLAIN SELECT ...     show the per-segment specialization plan
  \analyze SELECT ...    execute once with tracing: per-phase cycles/row breakdown
  \metrics               dump the process metrics registry as JSON
  \profile               show the active cost-model profile as JSON
  \calibrate             re-probe the kernels, activate the fresh profile for this session only
  \stats                 per-column encoding and plan-cache statistics
  \schema                column names and types
  \help                  this text`)
	default:
		fmt.Fprintf(s.errOut, "unknown command %s (try \\help)\n", line)
	}
}

// analyze executes a statement once with tracing enabled and prints the
// measured per-phase breakdown. The captured trace (per-batch spans
// included) replaces the previous one behind /debug/trace.
func (s *shell) analyze(query string) {
	if query == "" {
		fmt.Fprintln(s.errOut, `usage: \analyze SELECT ...`)
		return
	}
	st, err := sql.Parse(query)
	if err != nil {
		fmt.Fprintln(s.errOut, err)
		return
	}
	if st.Table != s.name {
		fmt.Fprintf(s.errOut, "unknown table %q (this shell serves %q)\n", st.Table, s.name)
		return
	}
	p, err := s.prepared(st)
	if err != nil {
		fmt.Fprintln(s.errOut, err)
		return
	}
	rep, err := p.ExplainAnalyze(context.Background())
	if err != nil {
		fmt.Fprintln(s.errOut, err)
		return
	}
	fmt.Fprint(s.out, rep.Format())
	s.mu.Lock()
	s.lastTrace = rep.Trace
	s.mu.Unlock()
}

// printProfile renders a cost profile as indented JSON.
func (s *shell) printProfile(p *costmodel.Profile) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fmt.Fprintln(s.errOut, err)
		return
	}
	fmt.Fprintf(s.out, "%s\n", data)
}

// calibrate re-probes the kernels and activates the fresh profile for
// every later plan of this session; nothing is written. Cached plans were
// chosen under the old profile, so the statement cache is dropped.
func (s *shell) calibrate() {
	p := costmodel.Calibrate()
	costmodel.SetActive(p)
	s.cache.Reset()
	s.printProfile(p)
	fmt.Fprintln(s.out, "profile active for this session (make calibrate updates the checked-in one)")
}

// trace is the serve layer's /debug/trace source: the last \analyze
// trace, read under the shell lock because HTTP serves it from another
// goroutine.
func (s *shell) trace() *obs.ScanTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}

func printSchema(w io.Writer, tbl *table.Table) {
	fmt.Fprint(w, "columns: ")
	for i, c := range tbl.Schema() {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		typ := "int"
		if c.Type == table.String {
			typ = "string"
		}
		fmt.Fprintf(w, "%s %s", c.Name, typ)
	}
	fmt.Fprintln(w)
}

func (s *shell) run(query string) {
	// EXPLAIN prefix shows the per-segment specialization plan instead of
	// executing.
	explain := false
	if len(query) > 8 && strings.EqualFold(query[:8], "explain ") {
		explain = true
		query = query[8:]
	}
	st, err := sql.Parse(query)
	if err != nil {
		fmt.Fprintln(s.errOut, err)
		return
	}
	if st.Table != s.name {
		fmt.Fprintf(s.errOut, "unknown table %q (this shell serves %q)\n", st.Table, s.name)
		return
	}
	p, err := s.prepared(st)
	if err != nil {
		fmt.Fprintln(s.errOut, err)
		return
	}
	if explain {
		plans, err := p.Explain()
		if err != nil {
			fmt.Fprintln(s.errOut, err)
			return
		}
		fmt.Fprint(s.out, engine.FormatPlans(plans))
		return
	}
	start := time.Now()
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Fprintln(s.errOut, err)
		return
	}
	fmt.Fprint(s.out, res.Format())
	fmt.Fprintf(s.out, "%d row(s) in %v\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
}
