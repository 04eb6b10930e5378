// OpenMetrics text exposition for the metrics registry.
//
// The registry's native naming uses dots (serve.latency_ms) and stores
// labeled series under canonical name{k="v"} keys (SeriesKey). Exposition
// maps that onto the Prometheus data model: dots become underscores,
// series sharing a base name group under one # TYPE family, histograms
// render cumulative le buckets plus _sum/_count, and each bucket carries
// its exemplar — the request-ID link from a latency bucket into the
// request journal.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// metricKind discriminates the exposition families.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one exposition-ready time series: the sanitized family name,
// the rendered label body (no braces, already escaped), and the metric.
type series struct {
	name   string // sanitized family name
	labels string // `k="v",k2="v2"` or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series of one name for the # TYPE header.
type family struct {
	name   string
	kind   metricKind
	series []series
}

// sanitizeMetricName maps a registry name onto the Prometheus name
// charset [a-zA-Z0-9_:], replacing everything else (dots included) with
// an underscore.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitSeriesKey separates a registry key into its base name and label
// body. Keys are built by SeriesKey, so the label body is already escaped
// and canonically ordered.
func splitSeriesKey(key string) (name, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	return key[:i], strings.TrimSuffix(key[i+1:], "}")
}

// families snapshots the registry into sorted exposition families.
func (r *Registry) families() []family {
	r.mu.RLock()
	all := make([]series, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for key, c := range r.counters {
		name, labels := splitSeriesKey(key)
		all = append(all, series{name: sanitizeMetricName(name), labels: labels, kind: kindCounter, c: c})
	}
	for key, g := range r.gauges {
		name, labels := splitSeriesKey(key)
		all = append(all, series{name: sanitizeMetricName(name), labels: labels, kind: kindGauge, g: g})
	}
	for key, h := range r.hists {
		name, labels := splitSeriesKey(key)
		all = append(all, series{name: sanitizeMetricName(name), labels: labels, kind: kindHistogram, h: h})
	}
	r.mu.RUnlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		if all[i].kind != all[j].kind {
			return all[i].kind < all[j].kind
		}
		return all[i].labels < all[j].labels
	})
	var fams []family
	for _, s := range all {
		if n := len(fams); n > 0 && fams[n-1].name == s.name && fams[n-1].kind == s.kind {
			fams[n-1].series = append(fams[n-1].series, s)
			continue
		}
		fams = append(fams, family{name: s.name, kind: s.kind, series: []series{s}})
	}
	return fams
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges a series' label body with one extra pair (le for
// histogram buckets), braced and ready to append to a sample name.
func joinLabels(body, extra string) string {
	switch {
	case body == "" && extra == "":
		return ""
	case body == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + body + "}"
	default:
		return "{" + body + "," + extra + "}"
	}
}

// WriteOpenMetrics writes the registry in the OpenMetrics text format
// (version 1.0.0): deterministic family and series ordering, escaped
// label values, counters exposing a _total sample, cumulative histogram
// buckets whose lines carry their latest exemplar as
// # {request_id="<hex>"} value timestamp — the link from a latency bucket
// back to the request journal — and a closing # EOF.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := &errWriter{w: w}
	for _, fam := range r.families() {
		switch fam.kind {
		case kindCounter:
			bw.printf("# TYPE %s counter\n", fam.name)
			for _, s := range fam.series {
				bw.printf("%s_total%s %d\n", fam.name, joinLabels(s.labels, ""), s.c.Value())
			}
		case kindGauge:
			bw.printf("# TYPE %s gauge\n", fam.name)
			for _, s := range fam.series {
				bw.printf("%s%s %s\n", fam.name, joinLabels(s.labels, ""), fmtFloat(s.g.Value()))
			}
		case kindHistogram:
			bw.printf("# TYPE %s histogram\n", fam.name)
			for _, s := range fam.series {
				writeHistogram(bw, fam.name, s)
			}
		}
	}
	bw.printf("# EOF\n")
	return bw.err
}

// writeHistogram renders one histogram series: cumulative buckets with le
// labels (finite bounds then +Inf) and their exemplars, then _sum and
// _count.
func writeHistogram(bw *errWriter, name string, s series) {
	bounds := s.h.Bounds()
	counts := s.h.Counts()
	exemplars := make(map[int]Exemplar)
	for _, e := range s.h.Exemplars() {
		exemplars[e.Bucket] = e
	}
	cum := int64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = fmtFloat(bounds[i])
		}
		bw.printf("%s_bucket%s %d", name, joinLabels(s.labels, `le="`+le+`"`), cum)
		if e, ok := exemplars[i]; ok {
			// An exemplar's value sits inside its bucket, so attaching it
			// to that bucket's cumulative line keeps it OpenMetrics-valid
			// (value <= le).
			bw.printf(" # {request_id=\"%s\"} %s %s",
				FormatRequestID(e.ID), fmtFloat(e.Value), fmtFloat(float64(e.TS)/1e9))
		}
		bw.printf("\n")
	}
	bw.printf("%s_sum%s %s\n", name, joinLabels(s.labels, ""), fmtFloat(s.h.Sum()))
	bw.printf("%s_count%s %d\n", name, joinLabels(s.labels, ""), s.h.Count())
}

// errWriter folds the first write error through a printf sequence.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
