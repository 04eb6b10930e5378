// Package costmodel calibrates the engine's cost model to the machine it
// runs on. BIPie's strategy decisions — which aggregation kernel wins,
// whether a pushed comparison runs on packed words or unpacked ones, where
// the gather/compact selection crossover sits — all reduce to comparing
// per-kernel cycles/row figures. The paper fit those figures on one
// machine; the decode-throughput-law framing (PAPERS.md) says they are a
// property of the hardware, measurable in microseconds. So this package
// measures them: short alloc-free probes of the actual hot kernels, timed
// with perfstat's cycle conversion, fitted into a Profile the planner
// consults instead of hand-tuned constants.
//
// The figures are fitted once, offline, as the paper fits its crossovers:
// `make calibrate` runs Calibrate() on a quiet machine and checks the
// result in as profile.json, which Active() serves to every process. No
// probe runs unless asked for (Calibrate, `bipie-sql`'s \calibrate, the
// benchmark's costmodel rungs). Static() reproduces the pre-calibration
// constants exactly, as a deterministic fallback and an ablation baseline.
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
// agg.Choose consumes, plus per-kernel cycles/row figures for every
// decision the filter and selection paths make. A nil or static profile
// answers every query with the pre-calibration constants, so callers never
// need to special-case.
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
	// cycles/run for the RLE probes, cycles/gathered-row for gather. Nil
	// means uncalibrated: every accessor falls back to its static answer.
	Kernels map[string]float64 `json:"kernels,omitempty"`
	// BytesPerRow maps the same probe names to the bytes each kernel
	// touches per row — packed width/8 for decode kernels — recorded so a
	// profile also answers "is this scan bandwidth-bound" questions.
	BytesPerRow map[string]float64 `json:"bytes_per_row,omitempty"`
}

// Static returns the pre-calibration cost model: agg.StaticCost constants,
// the measured-once usePackedCmp width rule, the Figure-7 selection
// crossover interpolation. It is deterministic across machines and is the
// ablation baseline TestStaticProfileAblation holds results against.
func Static() *Profile {
	return &Profile{Source: "static", Format: FormatVersion, Agg: agg.StaticCost()}
}

// calibrated reports whether the profile carries measured kernel figures.
func (p *Profile) calibrated() bool { return p != nil && len(p.Kernels) > 0 }

// AggCost returns the aggregation coefficients for agg.Choose /
// agg.EstimateCost. Nil receiver means static.
func (p *Profile) AggCost() *agg.CostProfile {
	if p == nil {
		return nil
	}
	return &p.Agg
}

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
// surfaces). The decision rules of a static profile never consult these —
// UsePackedCmp and GatherCompactCrossover answer from the original
// hand-measured policies.
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

// UsePackedCmp decides packed-domain compare vs unpack-then-compare for a
// pushed predicate on a width-bit column. Calibrated profiles compare the
// two measured paths directly; static profiles answer with the original
// hand-measured width rule (≤32 bits except exactly 16, where unpacking is
// a straight word copy).
func (p *Profile) UsePackedCmp(width uint8) bool {
	if p.calibrated() {
		pc, ok1 := p.kernelAt("packedcmp", width)
		up, ok2 := p.kernelAt("unpack", width)
		if ok1 && ok2 {
			return pc < up+p.CmpMaskCyclesPerRow(bitpack.WordBytes(width))
		}
	}
	return width <= 32 && width != 16
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

// GatherCompactCrossover returns the selectivity above which physical
// compaction beats gather for a column packed at the given width.
// Calibrated profiles solve the measured cost balance: compaction pays a
// full unpack plus a compact pass on every row regardless of selectivity,
// gather pays an index-compaction per row plus an indexed unpack per
// selected row — the crossover is where the two lines meet. Static
// profiles interpolate the paper's Figure 7 anchors (defaultCrossover).
func (p *Profile) GatherCompactCrossover(bits uint8) float64 {
	if p.calibrated() {
		ws := bitpack.WordBytes(bits)
		unpack, ok1 := p.kernelAt("unpack", bits)
		compact, ok2 := p.kernel(fmt.Sprintf("sel.compact.w%d", ws))
		compIdx, ok3 := p.kernel("sel.compactidx")
		gather, ok4 := p.kernel(fmt.Sprintf("sel.gather.w%d", ws))
		if ok1 && ok2 && ok3 && ok4 && gather > 0 {
			// compIdx + s·gather = unpack + compact  ⇒  s*
			s := (unpack + compact - compIdx) / gather
			return clampCrossover(s)
		}
	}
	return defaultCrossover(bits)
}

// clampCrossover bounds the solved crossover to the same [1%, 60%] band
// the static policy uses: outside it the model is extrapolating past any
// regime the probes measured.
func clampCrossover(s float64) float64 {
	if s < 0.01 {
		return 0.01
	}
	if s > 0.60 {
		return 0.60
	}
	return s
}

// defaultCrossover is the static policy: linear interpolation between the
// paper's Figure 7 anchors, 2% at 4 bits and 38% at 21 bits. The crossover
// moves right as width grows because a full unpack touches more work per
// row while gather's indexed reads touch the same cache lines either way.
func defaultCrossover(bits uint8) float64 {
	const (
		loBits, loSel = 4.0, 0.02
		hiBits, hiSel = 21.0, 0.38
	)
	return clampCrossover(loSel + (float64(bits)-loBits)*(hiSel-loSel)/(hiBits-loBits))
}
