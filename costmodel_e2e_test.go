package bipie_test

// Acceptance tests for the calibrated decode-throughput cost model: the
// calibrated prediction must land near the traced measurement on the
// filter paths it prices (TestModelErrorBound), swapping the static
// profile in must never change results (TestStaticProfileAblation), the
// selection decisions read no profile (TestSelectionIgnoresProfile), and
// a supplied profile that would misprice plans is refused
// (TestCostProfileValidated).

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bipie"

	"bipie/internal/tpch"
)

// modelErrBound is the acceptance bound on relative model error for the
// encoded-filter phase: |predicted-measured|/measured <= 0.35 on an idle
// machine. BIPIE_MODEL_ERROR_BOUND loosens it for noisy CI runners.
func modelErrBound(t *testing.T) float64 {
	t.Helper()
	if s := os.Getenv("BIPIE_MODEL_ERROR_BOUND"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 {
			t.Fatalf("BIPIE_MODEL_ERROR_BOUND=%q: %v", s, err)
		}
		return v
	}
	return 0.35
}

const sweepRows = 1 << 17

// sweepTable builds the selectivity-sweep fixture for the packed filter
// path: a uniform filter column of the given width (bit-packed, zone maps
// useless), a 4-value group column, and a small aggregate column.
func sweepTable(t *testing.T, bits uint) *bipie.Table {
	t.Helper()
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "g", Type: bipie.String},
		{Name: "f", Type: bipie.Int64},
		{Name: "v", Type: bipie.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	f := make([]int64, sweepRows)
	v := make([]int64, sweepRows)
	g := make([]string, sweepRows)
	groups := []string{"a", "b", "c", "d"}
	for i := range f {
		f[i] = rng.Int63n(1 << bits)
		v[i] = int64(i % 100)
		g[i] = groups[i%4]
	}
	if err := tbl.AppendColumns(map[string][]int64{"f": f, "v": v}, map[string][]string{"g": g}); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	return tbl
}

// rleTable builds the encoded-domain fixture: the filter column has
// run-length 64 over 64 distinct values, so ChooseInt picks RLE and the
// pushed conjunct evaluates per run (CmpSpans) before ApplySpans expands
// qualifying spans into the selection vector — the aggregate column is
// bit-packed so rows must actually be selected and decoded.
func rleTable(t *testing.T) *bipie.Table {
	t.Helper()
	tbl, err := bipie.NewTable(bipie.Schema{
		{Name: "g", Type: bipie.String},
		{Name: "r", Type: bipie.Int64},
		{Name: "v", Type: bipie.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]int64, sweepRows)
	v := make([]int64, sweepRows)
	g := make([]string, sweepRows)
	groups := []string{"a", "b", "c", "d"}
	for i := range r {
		r[i] = int64((i / 64) % 64)
		v[i] = int64(i % 97)
		g[i] = groups[i%4]
	}
	if err := tbl.AppendColumns(map[string][]int64{"r": r, "v": v}, map[string][]string{"g": g}); err != nil {
		t.Fatal(err)
	}
	tbl.Flush()
	return tbl
}

func sweepQuery(col string, threshold int64) *bipie.Query {
	return &bipie.Query{
		GroupBy:    []string{"g"},
		Aggregates: []bipie.Aggregate{bipie.CountStar(), bipie.SumOf(bipie.Col("v"))},
		Filter:     bipie.Le(bipie.Col(col), bipie.Int(threshold)),
	}
}

// checkModel runs ExplainAnalyze and asserts the named phases' model error
// is within bound. The first attempt uses the process-wide profile (the
// production path). Noise can break the bound two ways — a scheduler
// interrupt inside the traced scan inflates one measurement, or sibling
// test packages load the machine so heavily that a quiet-fitted profile
// underprices everything — so failing attempts retry with a profile
// refitted under the current load, and the attempt whose worst phase is
// best counts. It returns false (after logging) when a phase produced no
// comparison — callers that know the phase must run treat that as a
// failure.
func checkModel(t *testing.T, label string, tbl *bipie.Table, q *bipie.Query, bound float64, phases ...string) bool {
	t.Helper()
	const attempts = 5
	var best []bipie.ModelPhase
	worst := func(ms []bipie.ModelPhase) float64 {
		w := 0.0
		for _, m := range ms {
			w = max(w, m.Err())
		}
		return w
	}
	for i := 0; i < attempts; i++ {
		opts := bipie.Options{Parallelism: 1}
		if i > 0 {
			opts.CostProfile = bipie.CalibrateCostModel()
		}
		rep, err := bipie.ExplainAnalyze(tbl, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var ms []bipie.ModelPhase
		for _, phase := range phases {
			m, ok := rep.ModelFor(phase)
			if !ok {
				t.Logf("%s: no %s comparison", label, phase)
				return false
			}
			if m.MeasuredCyclesPerRow <= 0 || m.PredictedCyclesPerRow <= 0 {
				t.Errorf("%s: degenerate model comparison %+v", label, m)
				return true
			}
			ms = append(ms, m)
		}
		if i == 0 || worst(ms) < worst(best) {
			best = ms
		}
		if worst(best) <= bound {
			break
		}
	}
	for _, m := range best {
		if err := m.Err(); err > bound {
			t.Errorf("%s %s: model error %.1f%% exceeds %.0f%% (predicted %.2f, measured %.2f cycles/row over %d rows)",
				label, m.Phase, 100*err, 100*bound, m.PredictedCyclesPerRow, m.MeasuredCyclesPerRow, m.Rows)
		} else {
			t.Logf("%s %s: predicted %.2f measured %.2f error %.1f%%",
				label, m.Phase, m.PredictedCyclesPerRow, m.MeasuredCyclesPerRow, 100*err)
		}
	}
	return true
}

// TestModelErrorBound is the tentpole acceptance bound: the calibrated
// profile's predicted encoded-filter cycles/row stays within 35% of the
// ExplainAnalyze measurement across a selectivity sweep on the packed
// path, on the encoded-domain (RLE run) path, and on TPC-H Q1 — where the
// decode phase (the four unpacks; its two products run in the walk) and
// the aggregate phase (the walk, products included, priced as the plain
// multi-aggregate row) are held to the same bound.
func TestModelErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("measured-cycles acceptance test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts kernel costs non-uniformly; no bound can hold")
	}
	bound := modelErrBound(t)

	t.Run("PackedSweep", func(t *testing.T) {
		tbl := sweepTable(t, 14)
		plans, err := bipie.Explain(tbl, sweepQuery("f", 1<<13), bipie.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) == 0 || plans[0].PushedFilters != 1 {
			t.Fatalf("sweep filter was not pushed: %+v", plans)
		}
		if plans[0].PackedFilters != 1 {
			t.Fatalf("14-bit filter did not compare packed words: %v", plans[0].PushedDomains)
		}
		for _, pct := range []int64{10, 25, 40, 50, 60, 75, 90} {
			threshold := (1 << 14) * pct / 100
			if !checkModel(t, "sel="+strconv.FormatInt(pct, 10)+"%", tbl, sweepQuery("f", threshold), bound, "encoded-filter") {
				t.Errorf("sel=%d%%: encoded-filter phase produced no model comparison", pct)
			}
		}
	})

	t.Run("RLEPath", func(t *testing.T) {
		tbl := rleTable(t)
		plans, err := bipie.Explain(tbl, sweepQuery("r", 31), bipie.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) == 0 || len(plans[0].PushedDomains) != 1 || plans[0].PushedDomains[0] != "rle-run" {
			t.Fatalf("filter not pushed onto the RLE run domain: %+v", plans)
		}
		for _, thr := range []int64{15, 31, 47} {
			if !checkModel(t, "rle thr="+strconv.FormatInt(thr, 10), tbl, sweepQuery("r", thr), bound, "encoded-filter") {
				t.Errorf("rle thr=%d: encoded-filter phase produced no model comparison", thr)
			}
		}
	})

	t.Run("Q1", func(t *testing.T) {
		tbl, err := tpch.Generate(tpch.GenOptions{Rows: 1 << 18, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !checkModel(t, "q1", tbl, tpch.Q1(), bound, "encoded-filter", "decode", "aggregate") {
			t.Error("q1: a phase produced no model comparison")
		}
	})
}

// TestStaticProfileAblation pins the model's isolation property: the cost
// profile only picks among correct aggregation strategies, so forcing the
// static profile must reproduce byte-identical results to the checked-in
// default on every path the sweep exercises (strategies may differ;
// results may not). The 14- and 16-bit sweeps cover both word-parallel
// and windowed packed compares. The zero-steady-state-alloc side of the
// acceptance criterion is pinned at the scan loop in engine's
// TestTraceDisabledPathZeroAllocs, which runs under the checked-in
// default.
func TestStaticProfileAblation(t *testing.T) {
	static := bipie.StaticCostModel()
	check := func(label string, tbl *bipie.Table, q *bipie.Query) {
		t.Helper()
		fitted, err := bipie.Run(tbl, q, bipie.Options{})
		if err != nil {
			t.Fatalf("%s checked-in: %v", label, err)
		}
		ablated, err := bipie.Run(tbl, q, bipie.Options{CostProfile: static})
		if err != nil {
			t.Fatalf("%s static: %v", label, err)
		}
		if !reflect.DeepEqual(fitted.Rows, ablated.Rows) {
			t.Errorf("%s: static-profile results differ from checked-in:\n%s\nvs\n%s",
				label, fitted.Format(), ablated.Format())
		}
		if fitted.Format() != ablated.Format() {
			t.Errorf("%s: formatted results differ", label)
		}
	}

	for _, bits := range []uint{14, 16} {
		sweep := sweepTable(t, bits)
		for _, pct := range []int64{10, 50, 90} {
			check(strconv.Itoa(int(bits))+"-bit sweep "+strconv.FormatInt(pct, 10)+"%", sweep, sweepQuery("f", (1<<bits)*pct/100))
		}
	}
	rle := rleTable(t)
	check("rle", rle, sweepQuery("r", 31))
	q1tbl, err := tpch.Generate(tpch.GenOptions{Rows: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("q1", q1tbl, tpch.Q1())
}

// scaledProfile copies the checked-in profile with every packed-compare
// figure multiplied by ten and every other kernel figure divided by ten:
// a fit that would flip both selection decisions if either read one.
func scaledProfile() *bipie.CostProfile {
	p := *bipie.ActiveCostModel()
	p.Kernels = make(map[string]float64, len(p.Kernels))
	for k, v := range bipie.ActiveCostModel().Kernels {
		if strings.HasPrefix(k, "packedcmp.") {
			p.Kernels[k] = v * 10
		} else {
			p.Kernels[k] = v / 10
		}
	}
	return &p
}

// TestSelectionIgnoresProfile pins the two selection decisions as rules
// that read no cost profile: a pushed comparison runs on packed words up
// to 32 bits and unpacks above, and gather gives way to compaction at the
// Figure-7 crossover, under the static, the checked-in and a scaled
// profile alike.
func TestSelectionIgnoresProfile(t *testing.T) {
	profiles := map[string]*bipie.CostProfile{
		"static": bipie.StaticCostModel(), "checked-in": bipie.ActiveCostModel(), "scaled": scaledProfile(),
	}
	for _, bits := range []uint{12, 16, 24, 33, 40} {
		tbl := sweepTable(t, bits)
		q := sweepQuery("f", 1<<(bits-1))
		want := "packed"
		if bits > 32 {
			want = "unpack"
		}
		for name, prof := range profiles {
			plans, err := bipie.Explain(tbl, q, bipie.Options{CostProfile: prof})
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range plans {
				if !reflect.DeepEqual(pl.PushedDomains, []string{want}) {
					t.Errorf("%d bits, %s profile: pushed domains %v, want [%s]", bits, name, pl.PushedDomains, want)
				}
			}
		}
	}

	// filter_scan's dict_in shape: about half the rows of the 24-bit price
	// column, above the 44 % crossover at 24 bits on every batch, where a
	// one-group plan sums under the mask (its special group).
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: 1 << 18, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := &bipie.Query{
		Aggregates: []bipie.Aggregate{bipie.CountStar(), bipie.SumOf(bipie.Col("l_extendedprice"))},
		Filter:     bipie.StrIn("l_returnflag", "A", "R"),
	}
	naive, err := bipie.RunNaive(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	for name, prof := range profiles {
		p, err := bipie.Prepare(tbl, q, bipie.Options{CostProfile: prof})
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := p.RunTraced(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.SpecialGroup == 0 || st.Gather != 0 || st.Compact != 0 || st.NoSelection != 0 {
			t.Errorf("%s profile: %d gather, %d compact, %d special-group, %d whole batches; want all special-group",
				name, st.Gather, st.Compact, st.SpecialGroup, st.NoSelection)
		}
		if res.Format() != naive.Format() {
			t.Errorf("%s profile: result differs from RunNaive:\n%s\nvs\n%s", name, res.Format(), naive.Format())
		}
	}
}

// TestCostProfileValidated: a supplied profile fitted under another
// format, or with an aggregation coefficient that would price its
// strategy as free, is refused by Prepare, Explain and Run, naming the
// field; the static, checked-in and freshly fitted profiles plan.
func TestCostProfileValidated(t *testing.T) {
	tbl, err := tpch.Generate(tpch.GenOptions{Rows: 1 << 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := tpch.Q1()
	oldFormat, freeReduce := *bipie.StaticCostModel(), *bipie.StaticCostModel()
	oldFormat.Format = 3
	freeReduce.Agg.ReducePerSum = 0
	for _, tc := range []struct {
		name  string
		prof  *bipie.CostProfile
		field string
	}{
		{"zero", &bipie.CostProfile{}, "Format"},
		{"format 3", &oldFormat, "Format"},
		{"free reduce", &freeReduce, "ReducePerSum"},
		{"static", bipie.StaticCostModel(), ""},
		{"checked-in", bipie.ActiveCostModel(), ""},
		{"calibrated", bipie.CalibrateCostModel(), ""},
	} {
		opts := bipie.Options{CostProfile: tc.prof}
		_, errPrepare := bipie.Prepare(tbl, q, opts)
		_, errExplain := bipie.Explain(tbl, q, opts)
		_, errRun := bipie.Run(tbl, q, opts)
		for entry, err := range map[string]error{"Prepare": errPrepare, "Explain": errExplain, "Run": errRun} {
			switch {
			case tc.field == "" && err != nil:
				t.Errorf("%s profile: %s: %v", tc.name, entry, err)
			case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field)):
				t.Errorf("%s profile: %s returned %v, want an error naming %s", tc.name, entry, err, tc.field)
			}
		}
	}
}
