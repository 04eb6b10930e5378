// Package obs is BIPie's observability layer: a per-scan phase tracer and a
// process-wide metrics registry, both built on the standard library only.
//
// The tracer answers "where did the cycles go" for one scan in the paper's
// reporting unit (cycles/row, via perfstat.Hz()): the engine splits a scan
// into phases — plan resolve, zone-map checks, encoded-filter kernels,
// decode, selection, group mapping, aggregation, merge — and records each
// phase's wall time per scan unit. Recording is opt-in and alloc-free on
// the hot path: the engine threads a nil-checked *Tracer through its exec
// state, so the disabled path costs one predictable branch per phase, and
// the enabled path appends spans only into a preallocated buffer.
//
// Timing hooks belong at phase boundaries, never inside SWAR kernels: a
// time.Since inside a compare or sum loop would cost more than the kernel
// body it measures. bipievet's hotalloc analyzer enforces this by flagging
// obs and time calls inside //bipie:kernel functions.
//
// The metrics registry (metrics.go) is the cross-scan aggregate view:
// counters, gauges and histograms with an expvar-style JSON snapshot,
// suitable for a /metrics HTTP endpoint.
package obs

import (
	"time"

	"bipie/internal/perfstat"
)

// Phase identifies one scan phase for cycle attribution. The set mirrors
// the engine's execution pipeline; driver-side phases (plan, merge) are
// recorded by the scan driver, the rest per scan unit at batch granularity.
//
//bipie:enum
type Phase uint8

const (
	// PhasePlan is plan resolution: per-segment plan lookup or build.
	PhasePlan Phase = iota
	// PhaseZoneMap is per-batch zone-map refinement of pushed conjuncts.
	PhaseZoneMap
	// PhaseEncodedFilter is pushed-conjunct evaluation on encoded data:
	// the packed-domain SWAR compare kernels and their unpack fallback,
	// RLE run-span evaluation, dict-code filters, and delta compares.
	PhaseEncodedFilter
	// PhaseDecode is column materialization: unpacking packed values,
	// loading and evaluating the residual predicate's value program,
	// gathering or compacting sum inputs.
	PhaseDecode
	// PhaseSelection is selection-vector work: the residual predicate's
	// compare-to-mask and mask combination, delete application, survivor
	// counting, and selection-vector compaction.
	PhaseSelection
	// PhaseGroupMap is group-id mapping (and special-group fusion).
	PhaseGroupMap
	// PhaseAggregate is the aggregation kernels: counts, sums, extrema,
	// sort-based and multi-aggregate passes.
	PhaseAggregate
	// PhaseMerge is result assembly: per-unit finalization and the
	// driver's cross-segment partial merge.
	PhaseMerge

	// NumPhases is the number of phases; arrays indexed by Phase use it.
	NumPhases
)

// String returns the phase label used in reports and trace dumps.
func (p Phase) String() string {
	switch p {
	case PhasePlan:
		return "plan"
	case PhaseZoneMap:
		return "zone-map"
	case PhaseEncodedFilter:
		return "encoded-filter"
	case PhaseDecode:
		return "decode"
	case PhaseSelection:
		return "selection"
	case PhaseGroupMap:
		return "group-map"
	case PhaseAggregate:
		return "aggregate"
	case PhaseMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// PhaseStat accumulates one phase's measurements: total wall nanoseconds,
// rows the phase touched, and how many timed intervals contributed.
type PhaseStat struct {
	Nanos int64
	Rows  int64
	Calls int64
}

func (s *PhaseStat) add(o PhaseStat) {
	s.Nanos += o.Nanos
	s.Rows += o.Rows
	s.Calls += o.Calls
}

// CyclesPerRow converts the phase total into cycles per touched row at the
// estimated CPU frequency; zero-row phases report 0.
func (s PhaseStat) CyclesPerRow() float64 {
	if s.Rows <= 0 {
		return 0
	}
	return perfstat.CyclesPerRow(time.Duration(s.Nanos), int(s.Rows))
}

// Span is one timed interval: a phase occurrence within a batch of a scan
// unit. Start and Dur are nanoseconds relative to the trace's scan start.
// Unit -1 marks driver-side spans (plan resolve, partial merge).
type Span struct {
	Phase    Phase
	Unit     int32
	RowStart int32 // first row of the batch being processed
	Start    int64
	Dur      int64
}
