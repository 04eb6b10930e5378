// Package costmodel calibrates the engine's cost model to the machine it
// runs on. A plan's predicted cycles/row — Explain's model column,
// ExplainAnalyze's assumed-vs-measured comparison — is a sum of per-kernel
// cycles/row figures. The paper fit its figures on one machine; the
// decode-throughput-law framing (PAPERS.md) says they are a property of
// the hardware, measurable in microseconds. So this package measures them:
// short alloc-free probes of the actual hot kernels, timed with perfstat's
// cycle conversion, fitted into a Profile that prices the aggregation,
// filter and decode phases of a plan. The profile decides nothing. Every
// plan decision is a rule that reads no profile: the aggregation strategy
// is the Figures 8–10 winner regions (agg.Choose), a pushed comparison
// runs on packed words up to 32 bits (engine.pushCmp), and gather gives
// way to compaction at sel.Crossover.
//
// The figures are fitted once, offline, as the paper fits its crossovers:
// `make calibrate` runs Calibrate() on a quiet machine and checks the
// result in as profile.json, which Active() serves to every process. No
// probe runs unless asked for (Calibrate, `bipie-sql`'s \calibrate, the
// benchmark's costmodel rungs). Static() reproduces the pre-calibration
// constants exactly, as deterministic prices for tests and the repository
// benchmark.
package costmodel

import (
	"fmt"

	"bipie/internal/agg"
	"bipie/internal/bitpack"
	"bipie/internal/expr"
)

// Machine records the hardware a profile was fitted on, as provenance: the
// clock estimate and core count the repository benchmark's start-up line
// also records, plus the architecture.
type Machine struct {
	HzEstimate float64 `json:"hz_estimate"`
	Cores      int     `json:"cores"`
	GOARCH     string  `json:"goarch"`
}

// FormatVersion identifies the coefficient semantics a serialized profile
// was fitted under. Bump it whenever a probe's unit changes (e.g. a
// per-scanned-row figure becomes per-selected-row) or a coefficient is
// added (4: agg.CostProfile.ReducePerSum), and regenerate profile.json:
// a checked-in profile with a different version is discarded for the
// static one rather than silently misread, and TestCheckedInProfile fails.
const FormatVersion = 4

// Profile is a fitted cost model: the aggregation-strategy coefficients
// agg.EstimateCost evaluates, plus per-kernel cycles/row figures for the
// filter and decode phases. It prices a plan and picks none. A nil or
// static profile prices every kernel with the pre-calibration constants.
type Profile struct {
	// Source records how the profile was obtained: "calibrated", "static"
	// or "checked-in".
	Source string `json:"source"`
	// Format is the FormatVersion the profile was fitted under.
	Format  int     `json:"format"`
	Machine Machine `json:"machine"`
	// Agg holds the aggregation-strategy coefficients (cycles per
	// processed row) in the shape agg.EstimateCost evaluates.
	Agg agg.CostProfile `json:"agg"`
	// Kernels maps probe names (see probe.go) to measured cycles/row —
	// cycles/run for the RLE probes, cycles/selected-row for span
	// expansion. Nil means uncalibrated: every accessor falls back to its
	// static answer.
	Kernels map[string]float64 `json:"kernels,omitempty"`
}

// Static returns the pre-calibration cost model: the agg.StaticCost
// constants and nominal kernel figures. It is deterministic across
// machines and is the profile the repository benchmark pins. A plan is the
// same under it as under any other profile (TestPlansIgnoreProfile); only
// its prices differ.
func Static() *Profile {
	return &Profile{Source: "static", Format: FormatVersion, Agg: agg.StaticCost()}
}

// calibrated reports whether the profile carries measured kernel figures.
func (p *Profile) calibrated() bool { return p != nil && len(p.Kernels) > 0 }

// AggCost returns the aggregation coefficients agg.EstimateCost prices the
// chosen strategy with.
func (p *Profile) AggCost() *agg.CostProfile { return &p.Agg }

// kernel returns the measured figure for a probe name.
func (p *Profile) kernel(name string) (float64, bool) {
	if !p.calibrated() {
		return 0, false
	}
	v, ok := p.Kernels[name]
	return v, ok && v > 0
}

// kernelAt returns a per-width probe family's figure (prefix "unpack" or
// "packedcmp") at a packed width. Up to denseProbeWidth every width is
// probed, because each either has a word-parallel kernel or takes the
// windowed loop and its neighbours say nothing about which: a profile
// without the figure has no answer (ok=false, as on uncalibrated profiles)
// rather than a guess. Above it one windowed loop serves every width and
// an unprobed one is interpolated linearly between the nearest probed
// widths, clamped at the ends.
func (p *Profile) kernelAt(prefix string, width uint8) (float64, bool) {
	if v, ok := p.kernel(fmt.Sprintf("%s.w%d", prefix, width)); ok || width <= denseProbeWidth {
		return v, ok
	}
	// The nearest probed widths at or above denseProbeWidth on either side.
	var loW, hiW uint8
	var loV, hiV float64
	for _, w := range probeWidths { // ascending
		v, ok := p.kernel(fmt.Sprintf("%s.w%d", prefix, w))
		if !ok || w < denseProbeWidth {
			continue
		}
		if w > width {
			hiW, hiV = w, v
			break
		}
		loW, loV = w, v
	}
	switch {
	case loW == 0:
		return hiV, hiW != 0
	case hiW == 0:
		return loV, true
	}
	return loV + float64(width-loW)/float64(hiW-loW)*(hiV-loV), true
}

// Static per-kernel figures: nominal cycles/row used only when a static
// profile must still produce a filter-cost prediction (for Explain
// surfaces). No decision consults them: the filter domains and the
// selection crossover are rules that read no profile.
const (
	staticUnpackPerRow     = 1.1
	staticPackedCmpPerRow  = 0.9
	staticCmpMaskPerRow    = 0.8
	staticRLEPerRun        = 6.0
	staticRLEFixedPerCall  = 150.0
	staticApplySpanPerRow  = 0.6 // per selected row
	staticDeltaPerRow      = 2.5
	staticDictBitmapPerRow = 1.6
	staticSumExprPerRow    = 1.5
	staticSumDivPerRow     = 10.0
)

// UnpackCyclesPerRow is the measured fast-unpack cost at a packed width.
func (p *Profile) UnpackCyclesPerRow(width uint8) float64 {
	if v, ok := p.kernelAt("unpack", width); ok {
		return v
	}
	return staticUnpackPerRow
}

// PackedCmpCyclesPerRow is the measured packed-domain SWAR compare cost at
// a packed width (scalar fused extract-compare where SWAR does not apply —
// the probe measures whichever kernel that width actually runs).
func (p *Profile) PackedCmpCyclesPerRow(width uint8) float64 {
	if v, ok := p.kernelAt("packedcmp", width); ok {
		return v
	}
	return staticPackedCmpPerRow
}

// CmpMaskCyclesPerRow is the branch-free compare-into-mask cost per row at
// an unpacked word size (1, 2, 4, 8 bytes).
func (p *Profile) CmpMaskCyclesPerRow(wordSize int) float64 {
	if v, ok := p.kernel(fmt.Sprintf("cmpmask.w%d", wordSize)); ok {
		return v
	}
	return staticCmpMaskPerRow
}

// UnpackCmpCyclesPerRow is the unpack-then-compare filter path at a packed
// width: fast unpack plus the mask kernel at the unpacked word size.
func (p *Profile) UnpackCmpCyclesPerRow(width uint8) float64 {
	return p.UnpackCyclesPerRow(width) + p.CmpMaskCyclesPerRow(bitpack.WordBytes(width))
}

// RLECmpSpansCyclesPerRun is the run-domain comparison cost per run.
func (p *Profile) RLECmpSpansCyclesPerRun() float64 {
	if v, ok := p.kernel("rle.cmpspans"); ok {
		return v
	}
	return staticRLEPerRun
}

// RLECmpSpansFixedCycles is the per-call fixed cost of a span comparison:
// call setup, locating the first overlapping run, and the surrounding
// bookkeeping that does not scale with run count. The span path pays it
// once per batch, so it sets the floor of low-selectivity predictions.
func (p *Profile) RLECmpSpansFixedCycles() float64 {
	if v, ok := p.kernel("rle.cmpspans.fixed"); ok {
		return v
	}
	return staticRLEFixedPerCall
}

// ApplySpansCyclesPerSelRow is the span→row-mask expansion cost per
// *selected* row. Zeroing the gaps between spans compiles to memclr and is
// nearly free; stamping the qualifying ranges with the selected marker is
// a byte loop, so the kernel's cost tracks the qualifying row count and
// callers scale this figure by their selectivity estimate.
func (p *Profile) ApplySpansCyclesPerSelRow() float64 {
	if v, ok := p.kernel("sel.applyspans"); ok {
		return v
	}
	return staticApplySpanPerRow
}

// DeltaDecodeCyclesPerRow is the delta checkpoint-replay decode cost.
func (p *Profile) DeltaDecodeCyclesPerRow() float64 {
	if v, ok := p.kernel("delta.decode"); ok {
		return v
	}
	return staticDeltaPerRow
}

// DictBitmapCyclesPerRow is the unpack-ids-plus-table-lookup cost of the
// dictionary bitmap filter per row.
func (p *Profile) DictBitmapCyclesPerRow() float64 {
	if v, ok := p.kernel("dict.bitmap"); ok {
		return v
	}
	return staticDictBitmapPerRow
}

// SumExprCyclesPerRow is the cost of one sum-expression operator node
// (internal/expr) writing a wordSize-byte lane: the typed add or multiply
// kernel, or the int64 divide.
func (p *Profile) SumExprCyclesPerRow(op expr.SumOp, wordSize int) float64 {
	switch op {
	case expr.SumDiv:
		if v, ok := p.kernel("sumexpr.div"); ok {
			return v
		}
		return staticSumDivPerRow
	case expr.SumAdd:
		if v, ok := p.kernel(fmt.Sprintf("sumexpr.add.w%d", wordSize)); ok {
			return v
		}
	default:
		if v, ok := p.kernel(fmt.Sprintf("sumexpr.mul.w%d", wordSize)); ok {
			return v
		}
	}
	return staticSumExprPerRow
}
