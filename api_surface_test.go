package bipie_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bipie"
	"bipie/internal/bench"
)

// The public façade is one-line re-exports; this test walks the whole
// surface end to end so a wiring mistake in any wrapper (wrong underlying
// function, swapped arguments) fails loudly.
func TestPublicSurface(t *testing.T) {
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "g", Type: bipie.String},
		{Name: "v", Type: bipie.Int64},
		{Name: "w", Type: bipie.Int64},
	}, bipie.WithSegmentRows(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2100; i++ {
		if err := tbl.AppendRow([]string{"a", "b", "c"}[i%3], int64(i%97), int64(i%13)); err != nil {
			t.Fatal(err)
		}
	}
	// Leave rows unsealed deliberately: queries must still see them.
	if tbl.MutableRows() == 0 {
		t.Fatal("expected unsealed rows")
	}

	// Every expression and predicate builder participates.
	e := bipie.Div(bipie.Mul(bipie.Add(bipie.Col("v"), bipie.Int(1)), bipie.Sub(bipie.Col("w"), bipie.Int(1))), bipie.Int(2))
	pred := bipie.And(
		bipie.Or(bipie.Lt(bipie.Col("v"), bipie.Int(90)), bipie.Ge(bipie.Col("w"), bipie.Int(11))),
		bipie.And(
			bipie.Not(bipie.Eq(bipie.Col("w"), bipie.Int(5))),
			bipie.And(
				bipie.Ne(bipie.Col("v"), bipie.Int(96)),
				bipie.And(
					bipie.Le(bipie.Col("v"), bipie.Int(95)),
					bipie.And(bipie.Gt(bipie.Col("v"), bipie.Int(0)), bipie.StrNe("g", "zzz")),
				),
			),
		),
	)
	q := &bipie.Query{
		GroupBy: []string{"g"},
		Aggregates: []bipie.Aggregate{
			bipie.CountStar(),
			bipie.SumOf(e),
			bipie.AvgOf(bipie.Col("v")),
			bipie.MinOf(bipie.Col("w")),
			bipie.MaxOf(bipie.Col("w")),
			{Kind: bipie.KindSum, Arg: bipie.Col("w"), Name: "w_total"},
		},
		Filter: pred,
		Having: []bipie.HavingCond{{Agg: 0, Op: 5 /* >= */, Value: 1}},
		Limit:  10,
	}

	res, err := bipie.Run(tbl, q, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := bipie.RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(oracle.Rows) || len(res.Rows) == 0 {
		t.Fatalf("rows %d vs %d", len(res.Rows), len(oracle.Rows))
	}
	for i := range res.Rows {
		for a := range res.Rows[i].Stats {
			if res.Rows[i].Stats[a] != oracle.Rows[i].Stats[a] {
				t.Fatalf("row %d agg %d mismatch", i, a)
			}
		}
	}
	if res.AggNames[5] != "w_total" {
		t.Fatalf("names: %v", res.AggNames)
	}

	// Explain over the same query.
	plans, err := bipie.Explain(tbl, q, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 5 { // 4 sealed + mutable snapshot
		t.Fatalf("plans=%d", len(plans))
	}
	if !strings.Contains(bipie.FormatPlans(plans), "strategy") {
		t.Fatal("FormatPlans")
	}
	// One word size per distinct SUM/MIN/MAX input: the division falls to
	// the int64 lane, the plain columns stay on their unpacked byte.
	if got := fmt.Sprint(plans[0].SumWordSizes); got != "[8 1 1 1 1]" {
		t.Fatalf("SumWordSizes = %s, want [8 1 1 1 1]", got)
	}
	if !strings.Contains(bipie.FormatPlans(plans), "8,1,1,1,1") {
		t.Fatalf("FormatPlans lost the sumwords column:\n%s", bipie.FormatPlans(plans))
	}
	// No input is a product the multi-aggregate walk computes: the one
	// expression divides, and the plan may not even be multi-aggregate.
	if plans[0].WalkedSums != nil {
		t.Fatalf("WalkedSums = %v, want none", plans[0].WalkedSums)
	}
	if plans[0].DecodeModelCyclesPerRow <= 0 {
		t.Fatal("plan carries no decode prediction")
	}

	// Prepare/Run split through the public façade: a shared Prepared serves
	// concurrent runs that all match the one-shot result, and its Explain
	// matches the one-shot Explain.
	prep, err := bipie.Prepare(tbl, q, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var _ *bipie.Prepared = prep
	prepRes := make([]*bipie.Result, 4)
	prepErr := make([]error, 4)
	var wg sync.WaitGroup
	for i := range prepRes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prepRes[i], prepErr[i] = prep.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range prepErr {
		if err != nil {
			t.Fatalf("Prepared.Run %d: %v", i, err)
		}
		if len(prepRes[i].Rows) != len(res.Rows) {
			t.Fatalf("Prepared.Run %d: %d rows, want %d", i, len(prepRes[i].Rows), len(res.Rows))
		}
		for r := range res.Rows {
			for a := range res.Rows[r].Stats {
				if prepRes[i].Rows[r].Stats[a] != res.Rows[r].Stats[a] {
					t.Fatalf("Prepared.Run %d row %d agg %d mismatch", i, r, a)
				}
			}
		}
	}
	// Every execution hands back its own statistics by value; without a
	// trace they carry no per-phase attribution.
	_, stats, err := prep.RunTraced(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches == 0 || stats.RowsTotal != 2100 || stats.Phases != nil {
		t.Fatalf("stats: %+v", stats)
	}
	prepPlans, err := prep.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if bipie.FormatPlans(prepPlans) != bipie.FormatPlans(plans) {
		t.Fatal("Prepared.Explain differs from one-shot Explain")
	}

	// Observability surface: a traced run fills ScanStats.Phases, the
	// trace dumps valid Chrome JSON, ExplainAnalyze reports a measured
	// breakdown matching the plain result, and the process registry
	// snapshots.
	trace := bipie.NewScanTrace(32)
	var _ *bipie.ScanTrace = trace
	tracedRes, tracedStats, err := prep.RunTraced(context.Background(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracedRes.Rows) != len(res.Rows) {
		t.Fatalf("traced run: %d rows, want %d", len(tracedRes.Rows), len(res.Rows))
	}
	var phases []bipie.PhaseStat = tracedStats.Phases
	if len(phases) == 0 {
		t.Fatal("traced run left ScanStats.Phases empty")
	}
	var chrome bytes.Buffer
	if err := trace.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), "traceEvents") {
		t.Fatal("WriteChromeTrace output shape")
	}
	rep, err := bipie.ExplainAnalyze(tbl, q, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var _ *bipie.AnalyzeReport = rep
	var _ []bipie.PhaseCost = rep.Phases
	var _ []bipie.StrategyCost = rep.Strategies
	if len(rep.Result.Rows) != len(res.Rows) || rep.TracedCyclesPerRow() <= 0 {
		t.Fatalf("analyze: %d rows, traced %v", len(rep.Result.Rows), rep.TracedCyclesPerRow())
	}
	if !strings.Contains(rep.Format(), "traced total") {
		t.Fatal("AnalyzeReport.Format shape")
	}
	var reg *bipie.MetricsRegistry = bipie.Metrics()
	if reg.Counter("engine.scans_finished").Value() == 0 {
		t.Fatal("registry recorded no scans")
	}
	var metricsJSON bytes.Buffer
	if err := reg.WriteJSON(&metricsJSON); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsJSON.String(), "engine.rows_scanned") {
		t.Fatal("metrics snapshot shape")
	}

	// Forced strategies through the public constants.
	for _, m := range []bipie.SelectionMethod{bipie.SelectionGather, bipie.SelectionCompact, bipie.SelectionSpecialGroup} {
		for _, s := range []bipie.AggregationStrategy{bipie.AggregationScalar, bipie.AggregationSortBased, bipie.AggregationInRegister, bipie.AggregationMulti, bipie.AggregationReduce} {
			forced, err := bipie.Run(tbl, q, bipie.Options{
				ForceSelection:   bipie.ForceSelection(m),
				ForceAggregation: bipie.ForceAggregation(s),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(forced.Rows) != len(res.Rows) {
				t.Fatalf("%v/%v rows", m, s)
			}
		}
	}

	// SQL round trip through the public parser.
	pq, name, err := bipie.ParseSQL(`SELECT g, count(*), sum(v), min(w)
		FROM t WHERE g IN ('a','b') AND v < 50 GROUP BY g HAVING count(*) > 5 LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "t" || pq.Limit != 2 || len(pq.Having) != 1 {
		t.Fatalf("parsed: %q %+v", name, pq)
	}
	sqlRes, err := bipie.Run(tbl, pq, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqlOracle, err := bipie.RunNaive(tbl, pq)
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlRes.Rows) != len(sqlOracle.Rows) {
		t.Fatal("sql rows")
	}

	// Persistence through the public API.
	tbl.Flush()
	st := tbl.Stats()
	if st.Rows != 2100 || len(st.Columns) != 3 {
		t.Fatalf("stats: %+v", st)
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bipie.LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := bipie.Run(loaded, q, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != len(res.Rows) {
		t.Fatal("loaded rows")
	}
	for i := range res.Rows {
		for a := range res.Rows[i].Stats {
			if res2.Rows[i].Stats[a] != res.Rows[i].Stats[a] {
				t.Fatalf("loaded row %d agg %d mismatch", i, a)
			}
		}
	}
	if !strings.Contains(res2.Format(), "count(*)") {
		t.Fatal("Format")
	}
}

// The scan surface is closed: two ways to execute a Prepared, two to explain
// it, and no option that points executions at a shared target. A fourth
// entry point or a new aliasing option has to change this test to arrive.
func TestScanSurfaceIsClosed(t *testing.T) {
	var methods []string
	pt := reflect.TypeOf((*bipie.Prepared)(nil))
	for i := 0; i < pt.NumMethod(); i++ {
		methods = append(methods, pt.Method(i).Name)
	}
	if got, want := fmt.Sprint(methods), "[Explain ExplainAnalyze Run RunTraced]"; got != want {
		t.Errorf("*bipie.Prepared exports %s, want %s", got, want)
	}
	ot := reflect.TypeOf(bipie.Options{})
	for i := 0; i < ot.NumField(); i++ {
		switch f := ot.Field(i); f.Type {
		case reflect.TypeOf((*bipie.ScanStats)(nil)), reflect.TypeOf((*bipie.ScanTrace)(nil)):
			t.Errorf("bipie.Options.%s is a %v: one target aliased across every execution of a Prepared", f.Name, f.Type)
		}
	}
}

// The paper evaluation has one list of experiments: internal/bench's
// registry. DESIGN.md's per-experiment index names exactly its ids (the
// command's usage text is generated from it and checked in
// cmd/bipie-bench), and a testing.B benchmark cited in the docs exists in
// the tree — a deleted harness cannot live on as a command that no longer
// runs.
func TestEvaluationDocsMatchRegistry(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	_, index, ok := strings.Cut(read("DESIGN.md"), "\n## Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	var indexed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(index, -1) {
		indexed = append(indexed, m[1])
	}
	var registered []string
	for _, e := range bench.Experiments() {
		registered = append(registered, e.ID)
	}
	if got, want := fmt.Sprint(indexed), fmt.Sprint(registered); got != want {
		t.Errorf("DESIGN.md indexes %s\nthe registry holds  %s", got, want)
	}

	defined := map[string]bool{}
	funcDecl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range funcDecl.FindAllStringSubmatch(read(path), -1) {
				defined[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`Benchmark[A-Z]\w+`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, name := range cited.FindAllString(read(doc), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// Package expr has one evaluator — the typed program — beside the row
// interpreter the oracle reads. A second compiler would arrive as an
// exported Compile* function, an Env to feed it, or a func-typed evaluator;
// any of them has to change this test first.
func TestExprSurfaceIsClosed(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/expr", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || pkgs["expr"] == nil {
		t.Fatalf("parse internal/expr: %v", err)
	}
	ast.Inspect(pkgs["expr"], func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && strings.HasPrefix(d.Name.Name, "Compile") {
				t.Errorf("expr exports %s: a second compiler", d.Name.Name)
			}
			return false
		case *ast.TypeSpec:
			if _, isFunc := d.Type.(*ast.FuncType); d.Name.IsExported() && (isFunc || d.Name.Name == "Env" || strings.HasPrefix(d.Name.Name, "Compile")) {
				t.Errorf("expr exports type %s: a closure evaluator's surface", d.Name.Name)
			}
		}
		return true
	})
}

// Row helpers on the public alias types.
func TestRowHelpers(t *testing.T) {
	tbl, _ := bipie.NewTable(bipie.Schema{
		{Name: "g", Type: bipie.String},
		{Name: "v", Type: bipie.Int64},
	})
	_ = tbl.AppendRow("x", int64(10))
	_ = tbl.AppendRow("x", int64(20))
	tbl.Flush()
	q := &bipie.Query{
		GroupBy:    []string{"g"},
		Aggregates: []bipie.Aggregate{bipie.CountStar(), bipie.SumOf(bipie.Col("v")), bipie.AvgOf(bipie.Col("v"))},
	}
	res, err := bipie.Run(tbl, q, bipie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Value(q, 0) != 2 || row.Value(q, 1) != 30 {
		t.Fatalf("Value: %+v", row)
	}
	if row.Avg(2) != 15 {
		t.Fatalf("Avg: %v", row.Avg(2))
	}
}
