package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and lock-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adjusts the gauge by delta and returns the new value.
// The serving layer's in-flight gauge uses it as an admission counter:
// the returned value is the post-increment count, race-free.
func (g *Gauge) Add(delta float64) float64 {
	for {
		old := g.bits.Load()
		nv := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return nv
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram buckets observations against fixed upper bounds. Bucket i
// counts observations v with v <= Bounds[i] (and greater than the previous
// bound); one overflow bucket counts the rest. Observe is lock-free.
//
// Each bucket additionally holds one exemplar slot: the most recent
// (value, request ID) pair recorded through ObserveExemplar. The OpenMetrics
// exposition renders them, linking tail buckets to entries in the request
// journal.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	ex     []exemplarSlot // len(bounds)+1, parallel to counts
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// exemplarSlot holds one bucket's latest exemplar. The mutex keeps the
// (id, value, timestamp) triple consistent; writers TryLock and skip on
// contention — exemplars are samples, dropping one under a write race is
// by design and keeps the observe path non-blocking.
type exemplarSlot struct {
	mu  sync.Mutex
	set bool
	id  uint64
	v   float64
	ts  int64 // unix nanoseconds
}

// Exemplar is one bucket's exposed exemplar: the last observation recorded
// into the bucket with a request ID attached.
type Exemplar struct {
	Bucket int // index into Counts(); len(Bounds()) is the overflow bucket
	ID     uint64
	Value  float64
	TS     int64 // unix nanoseconds
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		ex:     make([]exemplarSlot, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	h.addSum(v)
}

// ObserveExemplar records one value like Observe and stamps the winning
// bucket's exemplar slot with the observation and its request ID. It is
// alloc-free; under a concurrent write to the same bucket's slot the
// exemplar (not the observation) is dropped rather than blocking.
func (h *Histogram) ObserveExemplar(v float64, id uint64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	h.addSum(v)
	e := &h.ex[i]
	if e.mu.TryLock() {
		e.set, e.id, e.v, e.ts = true, id, v, time.Now().UnixNano()
		e.mu.Unlock()
	}
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Exemplars returns the buckets' recorded exemplars, in bucket order.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for i := range h.ex {
		e := &h.ex[i]
		e.mu.Lock()
		if e.set {
			out = append(out, Exemplar{Bucket: i, ID: e.id, Value: e.v, TS: e.ts})
		}
		e.mu.Unlock()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Counts returns the per-bucket counts; the last entry is the overflow
// bucket (observations above every bound).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// interpolating linearly inside the winning bucket (the first bucket's
// lower edge is taken as 0). Observations in the overflow bucket clamp to
// the last finite bound — a p99 of "at least the top bound" rather than a
// made-up extrapolation. Returns 0 when nothing has been observed.
//
// The estimate reads each bucket count once without a lock, so a
// concurrent Observe may or may not be included; for a serving-layer
// latency summary that point-in-time fuzziness is fine.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	counts := make([]int64, len(h.counts))
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	// rank is the (fractional) number of observations at or below the
	// quantile point.
	rank := q * float64(total)
	cum := float64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		if i >= len(h.bounds) {
			// Overflow bucket: clamp to the last finite bound.
			return h.bounds[len(h.bounds)-1]
		}
		lo := float64(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		frac := (rank - cum) / float64(c)
		return lo + frac*(h.bounds[i]-lo)
	}
	return h.bounds[len(h.bounds)-1]
}

// histSnapshot is a histogram's JSON form.
type histSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// A Registry is a named collection of metrics with an expvar-style JSON
// snapshot. Metric accessors get-or-create by name, so package-level
// metric variables and late lookups resolve to the same instance.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the engine publishes into.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls reuse the existing instance and ignore
// bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// SeriesKey builds the canonical registry key for a labeled series:
// name{k1="v1",k2="v2"} with label keys sorted and values escaped the way
// the OpenMetrics text format requires (backslash, quote, newline). Metric
// accessors taking label pairs resolve through it, so the same (name,
// labels) always lands on the same series regardless of pair order.
// Callers on a hot path should resolve their series once and keep the
// returned metric handle — key construction allocates.
func SeriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		labels = append(labels[:len(labels):len(labels)], "INVALID")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the OpenMetrics text-format label escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// CounterWith returns the counter for name with the given label pairs
// (k1, v1, k2, v2, ...), creating the series on first use.
func (r *Registry) CounterWith(name string, labels ...string) *Counter {
	return r.Counter(SeriesKey(name, labels...))
}

// HistogramWith returns the histogram for name with the given label pairs,
// creating it with bounds on first use.
func (r *Registry) HistogramWith(name string, bounds []float64, labels ...string) *Histogram {
	return r.Histogram(SeriesKey(name, labels...), bounds)
}

// Snapshot returns a point-in-time copy of every metric, keyed by name.
// Counters snapshot as int64, gauges as float64, histograms as objects
// with count/sum/bounds/counts.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = histSnapshot{Count: h.Count(), Sum: h.Sum(), Bounds: h.Bounds(), Counts: h.Counts()}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON. Keys render sorted
// (encoding/json orders map keys), so output is deterministic for a fixed
// metric state.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ServeHTTP makes the registry an http.Handler serving /metrics with
// content negotiation: Accept: application/openmetrics-text gets the
// OpenMetrics exposition (exemplars included), and everything else the
// JSON snapshot — so JSON scrapers and `curl` keep working while an
// OpenMetrics-capable scraper (Prometheus included) negotiates the text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = r.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = r.WriteJSON(w)
}
