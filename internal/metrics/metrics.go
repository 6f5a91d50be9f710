// Package metrics is a dependency-free observability core: atomic
// counters, gauges and fixed-bucket histograms, optionally grouped
// under single-label families, registered in a Registry that renders
// the Prometheus text exposition format. It exists so the pairing-heavy
// hot paths (SJ.Dec, the wire server, the SQL planner) can be
// instrumented without pulling an external client library into a
// crypto codebase, and so sjbench and a production sjserver share one
// measurement path: both read the same Registry.
//
// Every constructor accepts a nil *Registry and returns a fully
// functional, merely unregistered metric, and every mutating method is
// safe on a nil receiver. Instrumented packages therefore never branch
// on "is observability enabled" — an uninstrumented engine pays one
// nil check per event, nothing more.
//
// Concurrency: all metric updates are lock-free atomics; families
// (Vec types) take a short mutex only when a label value is first
// seen. Rendering takes a snapshot under the registry lock but reads
// metric values with the same atomics as writers, so scraping never
// stalls a join.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrease). Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets with inclusive
// upper bounds (the Prometheus `le` convention: an observation equal
// to a bound lands in that bound's bucket). An implicit +Inf bucket
// catches everything beyond the last bound.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, cumulative only at render
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// DefBuckets is the default latency bucket layout, in seconds: wide
// enough to cover a sub-millisecond SSE lookup and a multi-second
// full-scan join in one histogram.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: inclusive le semantics
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metric is one registered entry: its metadata plus a renderer that
// appends exposition-format sample lines for the current value.
type metric struct {
	name, help, typ string
	render          func(w io.Writer, name string)
	value           any
}

// Registry holds registered metrics and renders them. The zero value
// is not usable; construct with NewRegistry. All constructor functions
// accept a nil Registry, returning unregistered but working metrics.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register panics on duplicate names: two subsystems claiming one name
// is a wiring bug that silent last-wins would hide from the dashboard.
func (r *Registry) register(m *metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name] {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", m.name))
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Get returns the registered metric value with the given name — a
// *Counter, *Gauge, *Histogram or one of the Vec types — or nil when
// absent. Callers type-assert; the repo benchmark and the tests use it
// to read counters out of a live server's registry.
func (r *Registry) Get(name string) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return nil
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		m.render(w, m.name)
	}
}

// NewCounter creates and registers a counter. r may be nil.
func NewCounter(r *Registry, name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, typ: "counter", value: c,
		render: func(w io.Writer, name string) {
			fmt.Fprintf(w, "%s %d\n", name, c.Value())
		}})
	return c
}

// NewGauge creates and registers a gauge. r may be nil.
func NewGauge(r *Registry, name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, typ: "gauge", value: g,
		render: func(w io.Writer, name string) {
			fmt.Fprintf(w, "%s %d\n", name, g.Value())
		}})
	return g
}

// NewHistogram creates and registers a histogram with the given bucket
// upper bounds (nil or empty selects DefBuckets). r may be nil.
func NewHistogram(r *Registry, name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&metric{name: name, help: help, typ: "histogram", value: h,
		render: func(w io.Writer, name string) {
			renderHistogram(w, name, "", h)
		}})
	return h
}

// renderHistogram appends the cumulative _bucket/_sum/_count lines of
// one histogram; extraLabel (`key="value"` form, may be empty) is
// merged into each bucket's label set for Vec children.
func renderHistogram(w io.Writer, name, extraLabel string, h *Histogram) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if extraLabel != "" {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, extraLabel, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
	}
	suffix := ""
	if extraLabel != "" {
		suffix = "{" + extraLabel + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// vec is the shared child-management core of the Vec types.
type vec[T any] struct {
	mu    sync.Mutex
	kids  map[string]T
	mk    func() T
	order []string // first-seen order; render sorts
}

func (v *vec[T]) with(label string) T {
	v.mu.Lock()
	defer v.mu.Unlock()
	if k, ok := v.kids[label]; ok {
		return k
	}
	k := v.mk()
	v.kids[label] = k
	v.order = append(v.order, label)
	return k
}

func (v *vec[T]) snapshot() (labels []string, kids []T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	labels = append([]string(nil), v.order...)
	sort.Strings(labels)
	kids = make([]T, len(labels))
	for i, l := range labels {
		kids[i] = v.kids[l]
	}
	return labels, kids
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct {
	key string
	v   vec[*Counter]
}

// NewCounterVec creates and registers a counter family whose children
// are keyed by the label named key. r may be nil.
func NewCounterVec(r *Registry, name, help, key string) *CounterVec {
	cv := &CounterVec{key: key}
	cv.v = vec[*Counter]{kids: make(map[string]*Counter), mk: func() *Counter { return &Counter{} }}
	r.register(&metric{name: name, help: help, typ: "counter", value: cv,
		render: func(w io.Writer, name string) {
			labels, kids := cv.v.snapshot()
			for i, l := range labels {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", name, cv.key, l, kids[i].Value())
			}
		}})
	return cv
}

// With returns the child counter for a label value, creating it on
// first use. Safe on a nil receiver (returns a nil, no-op *Counter).
func (cv *CounterVec) With(label string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.with(label)
}

// GaugeVec is a family of gauges keyed by one label value.
type GaugeVec struct {
	key string
	v   vec[*Gauge]
}

// NewGaugeVec creates and registers a gauge family. r may be nil.
func NewGaugeVec(r *Registry, name, help, key string) *GaugeVec {
	gv := &GaugeVec{key: key}
	gv.v = vec[*Gauge]{kids: make(map[string]*Gauge), mk: func() *Gauge { return &Gauge{} }}
	r.register(&metric{name: name, help: help, typ: "gauge", value: gv,
		render: func(w io.Writer, name string) {
			labels, kids := gv.v.snapshot()
			for i, l := range labels {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", name, gv.key, l, kids[i].Value())
			}
		}})
	return gv
}

// With returns the child gauge for a label value. Safe on nil.
func (gv *GaugeVec) With(label string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.with(label)
}

// HistogramVec is a family of histograms keyed by one label value, all
// sharing one bucket layout.
type HistogramVec struct {
	key     string
	buckets []float64
	v       vec[*Histogram]
}

// NewHistogramVec creates and registers a histogram family. r may be
// nil; nil/empty buckets select DefBuckets.
func NewHistogramVec(r *Registry, name, help, key string, buckets []float64) *HistogramVec {
	hv := &HistogramVec{key: key, buckets: buckets}
	hv.v = vec[*Histogram]{kids: make(map[string]*Histogram), mk: func() *Histogram { return newHistogram(hv.buckets) }}
	r.register(&metric{name: name, help: help, typ: "histogram", value: hv,
		render: func(w io.Writer, name string) {
			labels, kids := hv.v.snapshot()
			for i, l := range labels {
				renderHistogram(w, name, fmt.Sprintf("%s=%q", hv.key, l), kids[i])
			}
		}})
	return hv
}

// With returns the child histogram for a label value. Safe on nil.
func (hv *HistogramVec) With(label string) *Histogram {
	if hv == nil {
		return nil
	}
	return hv.v.with(label)
}
