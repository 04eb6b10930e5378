package costmodel

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/expr"
	"bipie/internal/sel"
)

// fit is one Calibrate() run, shared by the tests that need a fresh fit.
var fit = sync.OnceValue(Calibrate)

func TestCalibrateProducesValidProfile(t *testing.T) {
	p := fit()
	if p.Source != "calibrated" {
		t.Fatalf("source = %q", p.Source)
	}
	if !p.valid() {
		t.Fatalf("calibrated profile invalid: %+v", p.Agg)
	}
	// A profile from before the COUNT pass was priced has no figure for it,
	// and a strategy priced without its count would win every comparison.
	old := *p
	old.Agg.CountScalar = 0
	if old.valid() {
		t.Fatal("a profile without the COUNT coefficients passed validation")
	}
	// Nor may a profile from before the one-group reduction was probed; one
	// group reduces under the fitted profile as under the static one, and
	// no larger domain does.
	old = *p
	old.Agg.ReducePerSum = 0
	if old.valid() {
		t.Fatal("a profile without the reduce coefficient passed validation")
	}
	for _, prof := range []*Profile{Static(), p} {
		for _, g := range []int{1, 2, 7} {
			params := agg.Params{Groups: g, Sums: 1, MaxWordSize: 4, WordSizes: []int{4}, Selectivity: 1}
			if got := agg.Choose(params, prof.AggCost()); (got == agg.StrategyReduce) != (g == 1) {
				t.Errorf("%s profile, %d groups: %v", prof.Source, g, got)
			}
		}
	}
	for _, w := range probeWidths {
		for _, fam := range []string{"unpack", "packedcmp"} {
			if v, ok := p.kernelAt(fam, w); !ok || v <= 0 || math.IsNaN(v) {
				t.Fatalf("%s.w%d = %v ok=%v", fam, w, v, ok)
			}
		}
	}
	for _, name := range []string{
		"cmpmask.w1", "cmpmask.w2", "cmpmask.w4", "cmpmask.w8",
		"rle.cmpspans", "rle.cmpspans.fixed",
		"sel.applyspans", "sel.compactidx",
		"sel.compact.w1", "sel.compact.w8", "sel.gather.w1", "sel.gather.w8",
		"delta.decode", "dict.bitmap",
		"sumexpr.add.w1", "sumexpr.add.w8", "sumexpr.mul.w2", "sumexpr.mul.w4", "sumexpr.div",
	} {
		if v, ok := p.kernel(name); !ok || v <= 0 {
			t.Fatalf("kernel %q = %v ok=%v", name, v, ok)
		}
	}
	if bpr := p.BytesPerRow["unpack.w16"]; bpr != 2 {
		t.Fatalf("unpack.w16 bytes/row = %v, want 2", bpr)
	}
}

// TestCheckedInProfile holds profile.json to what Calibrate() writes now:
// it parses and validates, it was fitted under the current FormatVersion
// (a version bump must regenerate it), it names every probe a fit names,
// and it is what Active() serves — under -race too, where a run-time fit
// would price the instrumented kernels instead.
func TestCheckedInProfile(t *testing.T) {
	var p Profile
	if err := json.Unmarshal(profileJSON, &p); err != nil {
		t.Fatalf("profile.json: %v", err)
	}
	if p.Format != FormatVersion {
		t.Fatalf("profile.json format %d, want %d: run make calibrate", p.Format, FormatVersion)
	}
	if !p.valid() {
		t.Fatalf("profile.json does not validate: %+v", p.Agg)
	}
	f := fit()
	for _, m := range []struct {
		name      string
		got, want map[string]float64
	}{{"kernels", p.Kernels, f.Kernels}, {"bytes_per_row", p.BytesPerRow, f.BytesPerRow}} {
		for k := range m.want {
			if _, ok := m.got[k]; !ok {
				t.Errorf("profile.json %s lacks %q, which a fit writes: run make calibrate", m.name, k)
			}
		}
		if len(m.got) != len(m.want) {
			t.Errorf("profile.json has %d %s, a fit writes %d: run make calibrate", len(m.got), m.name, len(m.want))
		}
	}
	if src := Active().Source; src != "checked-in" {
		t.Fatalf("Active().Source = %q, want checked-in", src)
	}
	// Plans read Active from every scan goroutine while a shell may swap
	// the profile: readers see one profile or the other, never nil.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				if Active() == nil {
					t.Error("Active returned nil")
					return
				}
			}
		}()
	}
	SetActive(Static())
	if Active().Source != "static" {
		t.Error("SetActive did not override the checked-in profile")
	}
	SetActive(nil)
	wg.Wait()
	if Active().Source != "checked-in" {
		t.Fatal("SetActive(nil) did not restore the checked-in profile")
	}
}

func TestProbesAllocFree(t *testing.T) {
	ps := newProbeSet()
	probes := map[string]func(){
		"unpack.w5":       func() { ps.runUnpack(5) },
		"unpack.w64":      func() { ps.runUnpack(64) },
		"packedcmp.w1":    func() { ps.runPackedCmp(1) },
		"packedcmp.w17":   func() { ps.runPackedCmp(17) },
		"cmpmask.w2":      func() { ps.runCmpMask(2) },
		"rle.cmpspans":    ps.runRLECmpSpans,
		"rle.cmpspans.w":  ps.runRLECmpSpansWindow,
		"sel.applyspans":  ps.runApplySpans,
		"sel.compactidx":  ps.runCompactIndices,
		"sel.compact.w4":  func() { ps.runCompact(4) },
		"sel.gather.w4":   func() { ps.runGather(4) },
		"delta.decode":    ps.runDeltaDecode,
		"dict.bitmap":     ps.runDictBitmap,
		"agg.inreg.w1":    func() { ps.runInReg(1) },
		"agg.sort.fixed":  ps.runSortPrepare,
		"agg.sort.sum":    ps.runSortSum,
		"agg.multi1":      ps.runMulti1,
		"agg.multi4":      ps.runMulti4,
		"agg.scalar":      ps.runScalarSum,
		"agg.scalar.mix":  ps.runScalarSumMixed,
		"agg.count":       ps.runCountScalar,
		"agg.count.inreg": ps.runCountInReg,
		"agg.reduce":      ps.runReduce,
		"sumexpr.add.w1":  func() { ps.runSumExpr(ps.sumAdd[1]) },
		"sumexpr.mul.w8":  func() { ps.runSumExpr(ps.sumMul[8]) },
		"sumexpr.div":     func() { ps.runSumExpr(ps.sumDiv) },
	}
	for name, fn := range probes {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("probe %s: %v allocs/run, want 0", name, allocs)
		}
	}
}

func TestKernelAtInterpolates(t *testing.T) {
	p := &Profile{
		Source: "test",
		Kernels: map[string]float64{
			"unpack.w8":  0.3,
			"unpack.w16": 0.6,
			"unpack.w40": 1.0,
			"unpack.w56": 3.0,
		},
	}
	v, ok := p.kernelAt("unpack", 48)
	if !ok || math.Abs(v-2.0) > 1e-9 {
		t.Fatalf("interpolated w48 = %v ok=%v, want 2.0", v, ok)
	}
	// End clamping both ways.
	if v, _ := p.kernelAt("unpack", 36); v != 1.0 {
		t.Fatalf("below-range clamp = %v, want 1.0", v)
	}
	if v, _ := p.kernelAt("unpack", 64); v != 3.0 {
		t.Fatalf("above-range clamp = %v, want 3.0", v)
	}
	// Exact hits bypass interpolation.
	if v, _ := p.kernelAt("unpack", 56); v != 3.0 {
		t.Fatalf("exact w56 = %v, want 3.0", v)
	}
	if v, _ := p.kernelAt("unpack", 16); v != 0.6 {
		t.Fatalf("exact w16 = %v, want 0.6", v)
	}
	// In the dense range a kernel width's neighbours say nothing about an
	// unprobed width: no answer, so the caller falls back to static.
	if v, ok := p.kernelAt("unpack", 12); ok {
		t.Fatalf("unprobed w12 answered %v from its neighbours", v)
	}
	if got := p.UnpackCyclesPerRow(12); got != staticUnpackPerRow {
		t.Fatalf("UnpackCyclesPerRow(12) = %v, want the static %v", got, staticUnpackPerRow)
	}
	if _, ok := p.kernelAt("packedcmp", 48); ok {
		t.Fatal("a family with no probes answered")
	}
}

// TestProbeWidthsDense pins the probed width set: every width the packed
// kernels distinguish, then the sparse tail, ascending as kernelAt needs.
func TestProbeWidthsDense(t *testing.T) {
	for i, w := range probeWidths {
		if i > 0 && w <= probeWidths[i-1] {
			t.Fatalf("probeWidths not ascending at %d: %v", i, probeWidths)
		}
		if i < denseProbeWidth && int(w) != i+1 {
			t.Fatalf("probeWidths[%d] = %d, want every width to %d", i, w, denseProbeWidth)
		}
	}
	if last := probeWidths[len(probeWidths)-1]; last != 64 {
		t.Fatalf("probeWidths ends at %d, want 64", last)
	}
}

func TestStaticProfileFallbacks(t *testing.T) {
	s := Static()
	if s.calibrated() {
		t.Fatal("static profile claims calibration")
	}
	// Static decisions must reproduce the pre-calibration policies exactly.
	for w := uint8(1); w <= 64; w++ {
		want := w <= 32 && w != 16
		if got := s.UsePackedCmp(w); got != want {
			t.Fatalf("static UsePackedCmp(%d) = %v, want %v", w, got, want)
		}
	}
	// The Figure-7 anchors: 2% at 4 bits, 38% at 21 bits, clamped band.
	if v := s.GatherCompactCrossover(4); math.Abs(v-0.02) > 1e-9 {
		t.Fatalf("crossover(4) = %v", v)
	}
	if v := s.GatherCompactCrossover(21); math.Abs(v-0.38) > 1e-9 {
		t.Fatalf("crossover(21) = %v", v)
	}
	if v := s.GatherCompactCrossover(64); v != 0.60 {
		t.Fatalf("crossover(64) = %v, want clamp 0.60", v)
	}
	// A nil profile behaves like static everywhere.
	var nilP *Profile
	if nilP.UsePackedCmp(16) || !nilP.UsePackedCmp(8) {
		t.Fatal("nil profile packed-compare policy diverges from static")
	}
	if nilP.AggCost() != nil {
		t.Fatal("nil profile must yield nil agg coefficients")
	}
	if v := s.SumExprCyclesPerRow(expr.SumMul, 4); v != staticSumExprPerRow {
		t.Fatalf("static sum-expression multiply = %v", v)
	}
	if v := nilP.SumExprCyclesPerRow(expr.SumDiv, 8); v != staticSumDivPerRow {
		t.Fatalf("nil-profile sum-expression divide = %v", v)
	}
}

// The probed sum-expression operators must be the instantiations a plan
// would run: each lands in the lane it is filed under.
func TestSumExprProbeLanes(t *testing.T) {
	ps := newProbeSet()
	for _, lane := range sumExprLanes {
		if nd := ps.sumProg.Node(ps.sumAdd[lane]); nd.Op != expr.SumAdd || nd.Word != lane {
			t.Errorf("add probe for lane %d runs node %+v", lane, nd)
		}
		if nd := ps.sumProg.Node(ps.sumMul[lane]); nd.Op != expr.SumMul || nd.Word != lane {
			t.Errorf("multiply probe for lane %d runs node %+v", lane, nd)
		}
	}
	if nd := ps.sumProg.Node(ps.sumDiv); nd.Op != expr.SumDiv || nd.Word != 8 {
		t.Errorf("divide probe runs node %+v", nd)
	}
}

func TestCalibratedDecisionsUseMeasurements(t *testing.T) {
	p := &Profile{
		Source:  "test",
		Kernels: map[string]float64{},
	}
	for _, w := range probeWidths {
		p.Kernels["unpack.w"+itoa(int(w))] = 1.0
		p.Kernels["packedcmp.w"+itoa(int(w))] = 5.0
	}
	p.Kernels["cmpmask.w1"] = 0.5
	p.Kernels["cmpmask.w2"] = 0.5
	p.Kernels["cmpmask.w4"] = 0.5
	p.Kernels["cmpmask.w8"] = 0.5
	// Packed compare measured slower than unpack+mask at every width: the
	// calibrated policy must say no even where the static table says yes.
	for _, w := range []uint8{4, 8, 12, 24} {
		if p.UsePackedCmp(w) {
			t.Fatalf("UsePackedCmp(%d) ignored measurements", w)
		}
	}
	// Crossover solves the measured balance: unpack=1, compact=2,
	// compactidx=0.5, gather=10 → s* = (1+2-0.5)/10 = 0.25.
	ws := bitpack.WordBytes(8)
	p.Kernels["sel.compact.w"+itoa(ws)] = 2.0
	p.Kernels["sel.compactidx"] = 0.5
	p.Kernels["sel.gather.w"+itoa(ws)] = 10.0
	if v := p.GatherCompactCrossover(8); math.Abs(v-0.25) > 1e-9 {
		t.Fatalf("solved crossover = %v, want 0.25", v)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestChooseAtStaticCrossover pins the selection policy a static profile
// yields: sel.ChooseAt fed the Figure-7 interpolation.
func TestChooseAtStaticCrossover(t *testing.T) {
	choose := func(s float64, bits uint8, fused bool) sel.Method {
		return sel.ChooseAt(s, Static().GatherCompactCrossover(bits), fused)
	}
	for _, tc := range []struct {
		name  string
		s     float64
		bits  uint8
		fused bool
		want  sel.Method
	}{
		{"low sel is gather regardless of fusion", 0.01, 14, true, sel.MethodGather},
		{"high sel fused is special group", 0.95, 14, true, sel.MethodSpecialGroup},
		{"high sel unfused falls back to compact", 0.95, 14, false, sel.MethodCompact},
		{"mid sel is compact", 0.5, 14, false, sel.MethodCompact},
		// The crossover moves right with width (Figure 7: 2% and 38%).
		{"30% at 4 bits is compact", 0.30, 4, false, sel.MethodCompact},
		{"30% at 21 bits is still gather", 0.30, 21, false, sel.MethodGather},
	} {
		if got := choose(tc.s, tc.bits, tc.fused); got != tc.want {
			t.Errorf("%s: %v", tc.name, got)
		}
	}
}

// TestCrossoverAnchors: the static crossover is monotone in width and
// stays inside the clamp band.
func TestCrossoverAnchors(t *testing.T) {
	prev := 0.0
	for b := uint8(1); b <= 64; b++ {
		c := defaultCrossover(b)
		if c < prev {
			t.Fatalf("crossover not monotone at %d bits", b)
		}
		if c < 0.01 || c > 0.60 {
			t.Fatalf("crossover out of clamp at %d bits: %v", b, c)
		}
		prev = c
	}
}
