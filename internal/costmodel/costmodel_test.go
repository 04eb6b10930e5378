package costmodel

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"bipie/internal/expr"
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
	if err := Static().Check(); err != nil {
		t.Fatalf("static profile: %v", err)
	}
	// A profile from before the COUNT pass, the one-group reduction or the
	// mixed-width scalar loop was probed has no figure for it, and a
	// strategy priced at zero would read as free; nor may a profile fitted
	// under another FormatVersion price plans. Check names the field.
	for field, spoil := range map[string]func(*Profile){
		"CountScalar":       func(q *Profile) { q.Agg.CountScalar = 0 },
		"ReducePerSum":      func(q *Profile) { q.Agg.ReducePerSum = 0 },
		"ScalarMixedPerSum": func(q *Profile) { q.Agg.ScalarMixedPerSum = 0 },
		"Format":            func(q *Profile) { q.Format = FormatVersion - 1 },
	} {
		old := *p
		spoil(&old)
		if err := old.Check(); err == nil || !strings.Contains(err.Error(), field) || old.valid() {
			t.Errorf("a profile with a bad %s passed validation: %v", field, err)
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
		"sel.applyspans",
		"delta.decode", "dict.bitmap",
		"sumexpr.add.w1", "sumexpr.add.w8", "sumexpr.mul.w2", "sumexpr.mul.w4", "sumexpr.div",
	} {
		if v, ok := p.kernel(name); !ok || v <= 0 {
			t.Fatalf("kernel %q = %v ok=%v", name, v, ok)
		}
	}
}

// TestCheckedInProfile holds profile.json to what Calibrate() writes now:
// it parses and validates, it was fitted under the current FormatVersion
// (a version bump must regenerate it), it names exactly the probes a fit
// names, and it is what Active() serves — under -race too, where a run-time fit
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
	for k := range f.Kernels {
		if _, ok := p.Kernels[k]; !ok {
			t.Errorf("profile.json kernels lacks %q, which a fit writes: run make calibrate", k)
		}
	}
	for k := range p.Kernels {
		if _, ok := f.Kernels[k]; !ok {
			t.Errorf("profile.json kernels has %q, which a fit does not write: delete it", k)
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
	// A nil profile prices every kernel like the static one.
	var nilP *Profile
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
