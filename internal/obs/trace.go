package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// A Tracer records phase timings for one scan unit. It is single-goroutine
// by construction — the engine hands each scan unit its own Tracer — so the
// hot-path methods (Begin, End, SetBatch) take no locks and allocate
// nothing: spans append into a buffer preallocated by StartUnit and are
// counted as dropped once it fills.
//
// The engine reaches these methods only through nil-checked wrappers on its
// exec state, so a scan without tracing pays one predictable branch per
// phase boundary.
type Tracer struct {
	base     time.Time
	unit     int32
	label    string // scan-unit grouping label (the aggregation strategy)
	rowStart int32
	phases   [NumPhases]PhaseStat
	spans    []Span
	dropped  int64
}

// Begin returns a phase start marker: nanoseconds since the scan started.
func (t *Tracer) Begin() int64 {
	return int64(time.Since(t.base))
}

// End closes a phase interval opened by Begin, crediting the elapsed time
// and rows to the phase and capturing a span if the buffer has room.
func (t *Tracer) End(p Phase, start int64, rows int) {
	now := int64(time.Since(t.base))
	ps := &t.phases[p]
	ps.Nanos += now - start
	ps.Rows += int64(rows)
	ps.Calls++
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, Span{Phase: p, Unit: t.unit, RowStart: t.rowStart, Start: start, Dur: now - start})
	} else if cap(t.spans) > 0 {
		t.dropped++
	}
}

// SetBatch labels subsequent spans with the batch's first row.
func (t *Tracer) SetBatch(rowStart int) {
	t.rowStart = int32(rowStart)
}

// Phases returns the per-phase totals recorded so far.
func (t *Tracer) Phases() [NumPhases]PhaseStat { return t.phases }

// A UnitGroup aggregates the scan units that share a label (the engine
// labels units with their segment's aggregation strategy), giving the
// actual-vs-assumed comparison its measured side.
type UnitGroup struct {
	Label  string
	Units  int
	Nanos  int64 // summed unit wall time
	Rows   int64 // rows these units scanned
	Phases [NumPhases]PhaseStat
}

// A ScanTrace collects one scan's phase attribution: the merge target for
// per-unit Tracers plus driver-side phases. The engine resets it at every
// scan start, so hand one ScanTrace to one Prepared.RunTraced call at a time
// for meaningful numbers; all mutation is mutex-guarded, so concurrent
// scans sharing a ScanTrace are race-free — they interleave, they do not
// corrupt.
//
// SpanCap bounds the per-unit span buffer; 0 records phase totals only.
type ScanTrace struct {
	SpanCap int

	mu        sync.Mutex
	base      time.Time
	nextUnit  int32
	unitsDone int
	unitNanos int64
	rows      int64
	phases    [NumPhases]PhaseStat
	spans     []Span
	dropped   int64
	groups    map[string]*UnitGroup
}

// NewScanTrace builds a trace capturing up to spanCap spans per scan unit
// (0 disables span capture; phase totals are always recorded).
func NewScanTrace(spanCap int) *ScanTrace {
	return &ScanTrace{SpanCap: spanCap, base: time.Now()}
}

// BeginScan resets the trace for a new scan. The engine calls it at the
// start of every traced Run.
func (s *ScanTrace) BeginScan() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = time.Now()
	s.nextUnit = 0
	s.unitsDone = 0
	s.unitNanos = 0
	s.rows = 0
	s.phases = [NumPhases]PhaseStat{}
	s.spans = s.spans[:0]
	s.dropped = 0
	s.groups = nil
}

// StartUnit hands out a Tracer for one scan unit. The Tracer (and its span
// buffer) is allocated here, once per unit per scan — the per-batch hot
// path only writes into it.
func (s *ScanTrace) StartUnit(label string) *Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &Tracer{base: s.base, unit: s.nextUnit, label: label}
	s.nextUnit++
	if s.SpanCap > 0 {
		t.spans = make([]Span, 0, s.SpanCap)
	}
	return t
}

// EndUnit merges a finished unit's tracer back in, together with the
// unit's wall time and the rows it scanned.
func (s *ScanTrace) EndUnit(t *Tracer, unitNanos, rows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range t.phases {
		s.phases[p].add(t.phases[p])
	}
	s.spans = append(s.spans, t.spans...)
	s.dropped += t.dropped
	s.unitsDone++
	s.unitNanos += unitNanos
	s.rows += rows
	if s.groups == nil {
		s.groups = make(map[string]*UnitGroup)
	}
	g := s.groups[t.label]
	if g == nil {
		g = &UnitGroup{Label: t.label}
		s.groups[t.label] = g
	}
	g.Units++
	g.Nanos += unitNanos
	g.Rows += rows
	for p := range t.phases {
		g.Phases[p].add(t.phases[p])
	}
}

// Add records a driver-side phase interval (plan resolve, partial merge)
// that ran outside any scan unit.
func (s *ScanTrace) Add(p Phase, d time.Duration, rows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phases[p].add(PhaseStat{Nanos: int64(d), Rows: rows, Calls: 1})
	if s.SpanCap > 0 {
		end := int64(time.Since(s.base))
		s.spans = append(s.spans, Span{Phase: p, Unit: -1, Start: end - int64(d), Dur: int64(d)})
	}
}

// Phases returns the merged per-phase totals.
func (s *ScanTrace) Phases() [NumPhases]PhaseStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phases
}

// PhaseSlice returns the merged totals as a slice indexed by Phase, the
// shape ScanStats.Phases exposes.
func (s *ScanTrace) PhaseSlice() []PhaseStat {
	ph := s.Phases()
	out := make([]PhaseStat, NumPhases)
	copy(out, ph[:])
	return out
}

// Units returns how many scan units have merged in since BeginScan.
func (s *ScanTrace) Units() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unitsDone
}

// UnitNanos returns the summed wall time of merged scan units — the traced
// scan's total on-core time, robust under parallelism where the scan's
// wall clock is not.
func (s *ScanTrace) UnitNanos() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unitNanos
}

// Rows returns the rows scanned by merged units.
func (s *ScanTrace) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Dropped returns how many spans were discarded because a unit's span
// buffer filled.
func (s *ScanTrace) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Spans returns a copy of the captured spans.
func (s *ScanTrace) Spans() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// Groups returns the per-label unit aggregates, sorted by label.
func (s *ScanTrace) Groups() []UnitGroup {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]UnitGroup, 0, len(s.groups))
	for _, g := range s.groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// chromeEvent is one Chrome trace_event entry ("X" = complete event;
// timestamps in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace dumps the captured spans in Chrome's trace_event JSON
// format (load via chrome://tracing or https://ui.perfetto.dev). Each scan
// unit renders as one thread; driver-side spans render as thread 0.
func (s *ScanTrace) WriteChromeTrace(w io.Writer) error {
	spans := s.Spans()
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Phase.String(),
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			PID:  1,
			TID:  int(sp.Unit) + 1,
		}
		if sp.Unit >= 0 {
			ev.Args = map[string]any{"row_start": sp.RowStart}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
