package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"bipie/internal/obs"
)

// A spanRecorder keeps the traced run's spans in memory: one span around
// every call the harness makes into a layer's public functions, with the
// program's own published timings (ScanTrace spans, journal stages) hung
// underneath. Spans of one operation share its id. All methods accept a nil
// recorder and then do nothing, so untraced rounds run the same code.
type spanRecorder struct {
	epoch time.Time
	ops   atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

type spanID int32 // index into spans plus one; zero is "no span"

type span struct {
	name       string
	start, end int64 // ns since epoch
	parent     spanID
	op         int64
}

// maxSpans bounds the recorder's memory (~24 MiB); later spans are counted
// as dropped.
const maxSpans = 1 << 19

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// op opens the root span of a new operation.
func (r *spanRecorder) op(name string) spanID {
	if r == nil {
		return 0
	}
	return r.open(name, 0, r.ops.Add(1))
}

// begin opens a child span; it inherits the parent's operation id.
func (r *spanRecorder) begin(name string, parent spanID) spanID {
	if r == nil {
		return 0
	}
	return r.open(name, parent, 0)
}

func (r *spanRecorder) open(name string, parent spanID, op int64) spanID {
	now := r.since(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.push(span{name: name, start: now, parent: parent, op: op})
}

// push appends a span (a child takes its parent's operation id) unless the
// recorder is full. The caller holds mu.
func (r *spanRecorder) push(s span) spanID {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	if s.parent != 0 {
		s.op = r.spans[s.parent-1].op
	}
	r.spans = append(r.spans, s)
	return spanID(len(r.spans))
}

func (r *spanRecorder) end(id spanID) {
	if r == nil || id == 0 {
		return
	}
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// child records a span whose timing the program measured itself.
func (r *spanRecorder) child(parent spanID, name string, start, dur int64) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.push(span{name: name, start: start, end: start + dur, parent: parent})
}

// addScanSpans hangs a finished scan's phase spans under the harness span
// that timed the call. ScanTrace times are relative to the scan's start,
// which is the call's start to within the call overhead.
func (r *spanRecorder) addScanSpans(parent spanID, tr *obs.ScanTrace) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	base := r.spans[parent-1].start
	r.mu.Unlock()
	for _, s := range tr.Spans() {
		r.child(parent, "scan."+s.Phase.String(), base+s.Start, s.Dur)
	}
}

// chromeEvent is one trace_event "complete" entry; times in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome dumps the spans as Chrome trace_event JSON (chrome://tracing,
// ui.perfetto.dev), one thread per operation.
func (r *spanRecorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range r.spans {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		ev := chromeEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.op, Args: map[string]any{"span": i + 1, "parent": int(s.parent)}}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
