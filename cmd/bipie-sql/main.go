// Command bipie-sql is an interactive SQL shell over a generated demo
// dataset (or a previously saved table file), executing the supported
// aggregation query shape with the BIPie fused scan.
//
//	bipie-sql [-dataset tpch|events] [-rows N] [-load file.bip] [-save file.bip] ["QUERY"]
//
// With a query argument it runs once and exits; otherwise it reads queries
// from stdin, one per line. It starts no server: bipie-serve serves the
// same tables over HTTP.
//
// Queries are compiled with engine.Prepare and kept in an LRU
// (internal/serve.Cache, the one the server uses) keyed on the
// statement's rendered SQL, so a repeated query reuses its plan and
// pooled scan state instead of re-planning; \stats reports the cache's
// hit counts alongside the table statistics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
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

// shell is the interactive session state: the queried table, the
// prepared-statement cache, and the output streams (swapped for buffers
// in tests).
type shell struct {
	tbl    *table.Table
	name   string
	cache  *serve.Cache
	out    io.Writer
	errOut io.Writer
}

func newShell(tbl *table.Table, name string) *shell {
	return &shell{tbl: tbl, name: name, cache: serve.NewCache(planCacheCap), out: os.Stdout, errOut: os.Stderr}
}

// prepared returns a Prepared for the statement, from cache when the
// rendered SQL matches a previous query.
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
// measured per-phase breakdown.
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
// every later plan of this session; nothing is written. The profile
// prices plans and chooses none, so a cached plan would still be the same
// plan, but it carries the old prices: the statement cache is dropped so
// that EXPLAIN and \analyze re-price rather than show the old figures.
func (s *shell) calibrate() {
	p := costmodel.Calibrate()
	costmodel.SetActive(p)
	s.cache.Reset()
	s.printProfile(p)
	fmt.Fprintln(s.out, "profile active for this session (make calibrate updates the checked-in one)")
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
