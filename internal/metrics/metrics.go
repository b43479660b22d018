// Package metrics is a minimal Prometheus-text-format instrument
// registry for the serving layer: counters, gauges, callback-backed
// variants of both, and single-label vectors, rendered by GET /metrics
// in the exposition format Prometheus scrapes. It exists so mcdserve is
// observable without importing a client library the container does not
// carry; the renderer emits only the stable v0.0.4 text subset
// (# HELP, # TYPE, counter/gauge samples with at most one label, and
// fixed-bucket histograms) that every Prometheus-compatible scraper
// accepts.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type strings of the exposition format.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits: counters may grow by fractions
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (a counter
// never goes down — a decreasing series would break every rate()).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (negative deltas allowed).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metric is one registered family: a fixed set of live series, or a
// callback sampled at scrape time.
type metric struct {
	name  string
	help  string
	typ   string
	label string // vector label name; empty for unlabelled families

	mu     sync.Mutex
	static *Counter // unlabelled counter (nil otherwise)
	gauge  *Gauge   // unlabelled gauge (nil otherwise)
	series map[string]any
	fn     func() map[string]float64 // callback family ("" key = unlabelled)
}

// Registry holds metric families and renders them. The zero value is
// not usable; construct with New. A nil *Registry is valid everywhere
// and registers/serves nothing, so instrumentation call sites need no
// conditionals.
type Registry struct {
	mu       sync.Mutex
	families []*metric
	byName   map[string]*metric
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// register panics on duplicate or empty names: instruments are created
// at construction time, where a name collision is a programming error
// that should stop the program, not silently alias two series.
func (r *Registry) register(m *metric) *metric {
	if m.name == "" {
		panic("metrics: register with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("metrics: %q registered twice", m.name))
	}
	r.families = append(r.families, m)
	r.byName[m.name] = m
	return m
}

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	if r != nil {
		r.register(&metric{name: name, help: help, typ: typeCounter, static: c})
	}
	return c
}

// Gauge registers and returns an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	if r != nil {
		r.register(&metric{name: name, help: help, typ: typeGauge, gauge: g})
	}
	return g
}

// GaugeFunc registers a gauge whose value is sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, typ: typeGauge,
		fn: func() map[string]float64 { return map[string]float64{"": fn()} }})
}

// CounterFunc registers a counter whose value is sampled at scrape time
// — for monotone sources owned elsewhere (a process-wide instruction
// count). The source must be non-decreasing; the registry does not
// enforce it.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, typ: typeCounter,
		fn: func() map[string]float64 { return map[string]float64{"": fn()} }})
}

// GaugeVecFunc registers a labelled gauge family sampled at scrape
// time: fn returns label-value → sample (useful for "jobs by state",
// where the truth lives in one table and per-series bookkeeping would
// just be a second copy of it).
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, typ: typeGauge, label: label, fn: fn})
}

// CounterVecFunc registers a labelled counter family sampled at scrape
// time (each labelled sample must be non-decreasing).
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, typ: typeCounter, label: label, fn: fn})
}

// CounterVec is a single-label counter family; series appear in the
// rendering once first touched by With.
type CounterVec struct {
	m *metric
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	m := &metric{name: name, help: help, typ: typeCounter, label: label, series: map[string]any{}}
	if r != nil {
		r.register(m)
	}
	return &CounterVec{m: m}
}

// With returns the counter for one label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	if c, ok := v.m.series[value]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	v.m.series[value] = c
	return c
}

// GaugeVec is a single-label gauge family.
type GaugeVec struct {
	m *metric
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	m := &metric{name: name, help: help, typ: typeGauge, label: label, series: map[string]any{}}
	if r != nil {
		r.register(m)
	}
	return &GaugeVec{m: m}
}

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	if g, ok := v.m.series[value]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	v.m.series[value] = g
	return g
}

// Histogram counts observations into fixed cumulative buckets (the
// exposition format's histogram type: _bucket samples with "le" upper
// bounds, a _sum and a _count). Buckets are fixed at construction —
// never derived from the data — so every scrape of every process
// renders the same shape and histograms aggregate across instances.
// Observe is mutex-guarded, not lock-free: histograms here record job
// phases, not hot-loop events.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit

	mu     sync.Mutex
	counts []uint64 // per-bucket (non-cumulative) counts, len(bounds)+1
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Mean returns the mean of every observation so far (the exposition's
// _sum over _count); ok is false before the first observation.
func (h *Histogram) Mean() (mean float64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0, false
	}
	return h.sum / float64(h.count), true
}

// snapshot copies the histogram's state: cumulative bucket counts in
// bound order, then sum and count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.count
}

// HistogramVec is a single-label histogram family; every series shares
// the family's fixed bucket bounds.
type HistogramVec struct {
	m      *metric
	bounds []float64
}

// HistogramVec registers a labelled histogram family with the given
// ascending upper bounds (+Inf is always appended implicitly).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	m := &metric{name: name, help: help, typ: typeHistogram, label: label, series: map[string]any{}}
	if r != nil {
		r.register(m)
	}
	return &HistogramVec{m: m, bounds: bounds}
}

// With returns the histogram for one label value, creating it on first
// use — touch every label at registration time so an instrument that
// has never observed still scrapes as a zero-shaped family.
func (v *HistogramVec) With(value string) *Histogram {
	v.m.mu.Lock()
	defer v.m.mu.Unlock()
	if h, ok := v.m.series[value]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{bounds: v.bounds, counts: make([]uint64, len(v.bounds)+1)}
	v.m.series[value] = h
	return h
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value: shortest round-trip decimal, with
// the exposition spellings for the non-finite values.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render writes every family in name order, each family's series in
// label order — a deterministic scrape, so diffs between two scrapes
// are always semantic.
func (r *Registry) Render(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*metric(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, m := range fams {
		if m.typ == typeHistogram {
			if err := m.renderHistogram(w); err != nil {
				return err
			}
			continue
		}
		samples := m.sample()
		if len(samples) == 0 {
			continue
		}
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ); err != nil {
			return err
		}
		keys := make([]string, 0, len(samples))
		for k := range samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var err error
			if m.label == "" || k == "" {
				_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatValue(samples[k]))
			} else {
				_, err = fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n", m.name, m.label, escapeLabel(k), formatValue(samples[k]))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// renderHistogram writes one histogram family: per series, cumulative
// _bucket samples in bound order (ending at the implicit +Inf bucket),
// then _sum and _count — the shape Prometheus's histogram_quantile
// expects.
func (m *metric) renderHistogram(w io.Writer) error {
	m.mu.Lock()
	keys := make([]string, 0, len(m.series))
	for k := range m.series {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	if m.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ); err != nil {
		return err
	}
	for _, k := range keys {
		m.mu.Lock()
		h, _ := m.series[k].(*Histogram)
		m.mu.Unlock()
		if h == nil {
			continue
		}
		cum, sum, count := h.snapshot()
		series := fmt.Sprintf("%s=\"%s\",", m.label, escapeLabel(k))
		if m.label == "" {
			series = ""
		}
		for i, b := range h.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", m.name, series, formatValue(b), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", m.name, series, cum[len(cum)-1]); err != nil {
			return err
		}
		label := strings.TrimSuffix(series, ",")
		if label != "" {
			label = "{" + label + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, label, formatValue(sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, label, count); err != nil {
			return err
		}
	}
	return nil
}

// sample snapshots one family's current label→value samples.
func (m *metric) sample() map[string]float64 {
	if m.fn != nil {
		return m.fn()
	}
	if m.static != nil {
		return map[string]float64{"": m.static.Value()}
	}
	if m.gauge != nil {
		return map[string]float64{"": m.gauge.Value()}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.series))
	for k, s := range m.series {
		switch v := s.(type) {
		case *Counter:
			out[k] = v.Value()
		case *Gauge:
			out[k] = v.Value()
		}
	}
	return out
}

// ServeHTTP renders the registry — mount it at GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Render(w)
}
