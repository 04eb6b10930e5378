package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request IDs tie one served query's artifacts together: the journal
// entry, the slow-query log line, the OpenMetrics exemplar on the latency
// histogram, and the wire response all carry the same ID, so a tail
// observation on /metrics can be chased to its full stage breakdown on
// /debug/requests without restarting the server.
//
// IDs are 53-bit by construction — a 13-bit process discriminator (derived
// from the start time, so restarts hand out a fresh ID space) over a
// 40-bit sequence — because they travel through JSON numbers in bench
// archives, and float64 round-trips integers exactly only up to 2^53.
var (
	reqSeq  atomic.Uint64
	reqBase = (uint64(time.Now().UnixNano()) >> 16) & 0x1FFF
)

// NewRequestID returns a process-unique request ID. It is alloc-free and
// safe for any number of concurrent callers.
func NewRequestID() uint64 {
	return reqBase<<40 | (reqSeq.Add(1) & (1<<40 - 1))
}

// FormatRequestID renders an ID in the canonical lowercase-hex form used
// by the journal, exemplars, and log lines.
func FormatRequestID(id uint64) string {
	return strconv.FormatUint(id, 16)
}

// ParseRequestID parses the canonical hex form back into an ID.
func ParseRequestID(s string) (uint64, error) {
	return strconv.ParseUint(s, 16, 64)
}

// A RequestSpan is one served request's record: identity (ID, SQL text,
// shape key), outcome (status, error, plan-cache hit), the per-stage wall
// time through the serving path, and the scan's per-phase cycle
// attribution merged from the engine's ScanTrace. It is a flat value type
// — fixed size, no pointers beyond the string headers — so the journal
// can keep a ring of them and the fast path can fill one on the stack
// without allocating.
type RequestSpan struct {
	ID    uint64
	Start time.Time
	// SQL is the request's query text; Shape is the normalized plan-cache
	// key's hash — the label value the per-shape metrics use.
	SQL   string
	Shape string
	// Status is the HTTP status of the reply; Err carries the error
	// message for non-200s.
	Status int
	Err    string
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool
	// Strategy is the plan's aggregation-strategy label ("in-register",
	// "mixed", ...), the second pprof label on the executing goroutines.
	Strategy string
	// Stage wall times, in nanoseconds: SQL parse, plan-cache lookup (or
	// Prepare on a miss), admission-queue wait for a worker slot, engine
	// execution, and response encoding. TotalNS spans Start to the
	// journal record.
	ParseNS  int64
	PlanNS   int64
	QueueNS  int64
	ExecNS   int64
	EncodeNS int64
	TotalNS  int64
	// RowsScanned/RowsSelected come from the scan's ScanStats; Units is
	// the number of scan units the execution fanned out to.
	RowsScanned  int64
	RowsSelected int64
	Units        int
	// Phases is the per-phase cycle attribution from the request's
	// ScanTrace (zero when the scan never ran, e.g. a parse error).
	Phases [NumPhases]PhaseStat
}

// A Journal is a fixed-size ring of the most recent RequestSpans, the
// queryable tail behind /debug/requests. Writers claim slots with one
// atomic increment (no writer ever blocks another); each slot carries its
// own mutex so the copy in and the snapshot out are race-free without a
// global lock. Record is alloc-free: the span is copied by value into a
// preallocated slot.
type Journal struct {
	slots  []journalSlot
	cursor atomic.Uint64
}

type journalSlot struct {
	mu   sync.Mutex
	used bool
	span RequestSpan
}

// DefaultJournalSize is the ring capacity when NewJournal gets n <= 0.
const DefaultJournalSize = 1024

// NewJournal builds a journal holding the last n requests (n <= 0 means
// DefaultJournalSize).
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = DefaultJournalSize
	}
	return &Journal{slots: make([]journalSlot, n)}
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int { return len(j.slots) }

// Record copies the span into the next ring slot, overwriting the oldest
// entry once the ring has wrapped. It does not retain s and performs no
// allocation.
func (j *Journal) Record(s *RequestSpan) {
	idx := j.cursor.Add(1) - 1
	slot := &j.slots[idx%uint64(len(j.slots))]
	slot.mu.Lock()
	slot.span = *s
	slot.used = true
	slot.mu.Unlock()
}

// Len reports how many entries the journal currently holds (capped at the
// ring capacity).
func (j *Journal) Len() int {
	n := j.cursor.Load()
	if n > uint64(len(j.slots)) {
		return len(j.slots)
	}
	return int(n)
}

// Snapshot copies the journal's entries out, newest first. A concurrent
// Record may land in a slot mid-iteration; each slot is copied under its
// own lock, so every returned span is internally consistent.
func (j *Journal) Snapshot() []RequestSpan {
	cur := j.cursor.Load()
	n := cur
	if n > uint64(len(j.slots)) {
		n = uint64(len(j.slots))
	}
	out := make([]RequestSpan, 0, n)
	for i := uint64(0); i < n; i++ {
		slot := &j.slots[(cur-1-i)%uint64(len(j.slots))]
		slot.mu.Lock()
		if slot.used {
			out = append(out, slot.span)
		}
		slot.mu.Unlock()
	}
	return out
}

// Find returns the journaled span with the given request ID, if it is
// still in the ring.
func (j *Journal) Find(id uint64) (RequestSpan, bool) {
	for i := range j.slots {
		slot := &j.slots[i]
		slot.mu.Lock()
		if slot.used && slot.span.ID == id {
			s := slot.span
			slot.mu.Unlock()
			return s, true
		}
		slot.mu.Unlock()
	}
	return RequestSpan{}, false
}

// spanJSON is a RequestSpan's wire form: stage times in milliseconds, the
// ID in its canonical hex form, phases keyed by name with cycles/row.
type spanJSON struct {
	ID         string  `json:"id"`
	Start      string  `json:"start"`
	SQL        string  `json:"sql"`
	Shape      string  `json:"shape"`
	Status     int     `json:"status"`
	Error      string  `json:"error,omitempty"`
	CachedPlan bool    `json:"cached_plan"`
	Strategy   string  `json:"strategy,omitempty"`
	ParseMS    float64 `json:"parse_ms"`
	PlanMS     float64 `json:"plan_ms"`
	QueueMS    float64 `json:"queue_ms"`
	ExecMS     float64 `json:"exec_ms"`
	EncodeMS   float64 `json:"encode_ms"`
	TotalMS    float64 `json:"total_ms"`
	Rows       int64   `json:"rows_scanned"`
	Selected   int64   `json:"rows_selected"`
	Units      int     `json:"units,omitempty"`
	// Phases holds the scan's per-phase attribution for phases that ran:
	// wall nanoseconds, rows touched, and cycles per touched row.
	Phases []phaseJSON `json:"phases,omitempty"`
}

type phaseJSON struct {
	Phase        string  `json:"phase"`
	Nanos        int64   `json:"nanos"`
	Rows         int64   `json:"rows"`
	CyclesPerRow float64 `json:"cycles_per_row"`
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func (s *RequestSpan) toJSON() spanJSON {
	out := spanJSON{
		ID:         FormatRequestID(s.ID),
		Start:      s.Start.Format(time.RFC3339Nano),
		SQL:        s.SQL,
		Shape:      s.Shape,
		Status:     s.Status,
		Error:      s.Err,
		CachedPlan: s.CacheHit,
		Strategy:   s.Strategy,
		ParseMS:    ms(s.ParseNS),
		PlanMS:     ms(s.PlanNS),
		QueueMS:    ms(s.QueueNS),
		ExecMS:     ms(s.ExecNS),
		EncodeMS:   ms(s.EncodeNS),
		TotalMS:    ms(s.TotalNS),
		Rows:       s.RowsScanned,
		Selected:   s.RowsSelected,
		Units:      s.Units,
	}
	for p := range s.Phases {
		ps := s.Phases[p]
		if ps.Calls == 0 {
			continue
		}
		out.Phases = append(out.Phases, phaseJSON{
			Phase:        Phase(p).String(),
			Nanos:        ps.Nanos,
			Rows:         ps.Rows,
			CyclesPerRow: ps.CyclesPerRow(),
		})
	}
	return out
}

// WriteJSON dumps the journal newest-first as indented JSON.
func (j *Journal) WriteJSON(w io.Writer) error {
	spans := j.Snapshot()
	out := make([]spanJSON, len(spans))
	for i := range spans {
		out[i] = spans[i].toJSON()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeChromeTrace renders spans in Chrome trace_event JSON — the
// request-level companion to ScanTrace.WriteChromeTrace. Each request
// renders as one thread; its serving stages (parse, plan, queue wait,
// execution, encode) render as complete events on a shared timebase (the
// oldest span's start), so queue-wait pileups are visible as stacked bars
// across rows.
func writeChromeTrace(w io.Writer, spans []RequestSpan) error {
	var base time.Time
	for i := range spans {
		if base.IsZero() || spans[i].Start.Before(base) {
			base = spans[i].Start
		}
	}
	events := make([]chromeEvent, 0, len(spans)*5)
	for i := range spans {
		s := &spans[i]
		ts := float64(s.Start.Sub(base)) / 1e3 // µs
		args := map[string]any{
			"id": FormatRequestID(s.ID), "shape": s.Shape, "sql": s.SQL, "status": s.Status,
		}
		for _, st := range []struct {
			name string
			ns   int64
		}{
			{"parse", s.ParseNS},
			{"queue-wait", s.QueueNS},
			{"plan", s.PlanNS},
			{"exec", s.ExecNS},
			{"encode", s.EncodeNS},
		} {
			if st.ns <= 0 {
				continue
			}
			events = append(events, chromeEvent{
				Name: st.name, Ph: "X",
				TS: ts, Dur: float64(st.ns) / 1e3,
				PID: 2, TID: i + 1,
				Args: args,
			})
			ts += float64(st.ns) / 1e3
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// ServeHTTP serves the journal: the full ring (newest first) as JSON by
// default, one request with ?id=<hex>, or the Chrome trace_event form
// with ?format=trace — of the whole ring, or of one request's stages when
// both are given. Mount it at /debug/requests.
func (j *Journal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace := r.URL.Query().Get("format") == "trace"
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := ParseRequestID(idStr)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad request id %q: %v", idStr, err), http.StatusBadRequest)
			return
		}
		span, ok := j.Find(id)
		if !ok {
			http.Error(w, fmt.Sprintf("request %s not in the journal (it holds the last %d requests)", idStr, j.Cap()), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if trace {
			_ = writeChromeTrace(w, []RequestSpan{span})
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(span.toJSON())
		return
	}
	if trace {
		w.Header().Set("Content-Type", "application/json")
		_ = writeChromeTrace(w, j.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = j.WriteJSON(w)
}
