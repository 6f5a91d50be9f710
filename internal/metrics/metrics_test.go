package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := NewCounter(r, "c_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := NewGauge(r, "g", "test gauge")
	g.Set(10)
	g.Add(-3)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

// TestNilSafety pins the contract instrumented packages rely on: every
// mutator and reader is a no-op/zero on nil receivers, and the
// constructors work against a nil registry.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Sum() != 0 {
		t.Fatal("nil histogram not inert")
	}
	var cv *CounterVec
	cv.With("x").Inc()
	var gv *GaugeVec
	gv.With("x").Set(1)
	var hv *HistogramVec
	hv.With("x").Observe(1)

	var r *Registry
	NewCounter(r, "a", "").Inc()
	NewHistogram(r, "b", "", nil).Observe(1)
	r.WritePrometheus(&strings.Builder{})
	if r.Get("a") != nil {
		t.Fatal("nil registry Get != nil")
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound (`le`)
// convention: an observation exactly on a bound lands in that bound's
// bucket, one epsilon above lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(nil, "h", "", []float64{1, 2, 5})
	h.Observe(1)   // bucket le=1
	h.Observe(1.0) // bucket le=1
	h.Observe(2)   // bucket le=2 (inclusive)
	h.Observe(2.1) // bucket le=5
	h.Observe(5)   // bucket le=5 (inclusive)
	h.Observe(7)   // +Inf

	want := []uint64{2, 1, 2, 1} // per-bucket (non-cumulative)
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.count.Load() != 6 {
		t.Errorf("count = %d, want 6", h.count.Load())
	}
	if got, want := h.Sum(), 1+1+2+2.1+5+7.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounter(r, "sj_test_total", "a test counter")
	c.Add(3)
	g := NewGauge(r, "sj_gauge", "a gauge")
	g.Set(-2)
	h := NewHistogram(r, "sj_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	cv := NewCounterVec(r, "sj_req_total", "requests", "type")
	cv.With("join").Add(2)
	cv.With(`we"ird`).Inc()

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP sj_test_total a test counter",
		"# TYPE sj_test_total counter",
		"sj_test_total 3",
		"sj_gauge -2",
		"# TYPE sj_lat_seconds histogram",
		`sj_lat_seconds_bucket{le="0.1"} 1`,
		`sj_lat_seconds_bucket{le="1"} 2`,
		`sj_lat_seconds_bucket{le="+Inf"} 3`,
		"sj_lat_seconds_sum 2.55",
		"sj_lat_seconds_count 3",
		`sj_req_total{type="join"} 2`,
		`sj_req_total{type="we\"ird"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Output is sorted by metric name.
	if strings.Index(out, "sj_gauge") > strings.Index(out, "sj_test_total") {
		t.Error("metrics not sorted by name")
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	hv := NewHistogramVec(r, "sj_req_seconds", "request latency", "type", []float64{1})
	hv.With("join").Observe(0.5)
	hv.With("ping").Observe(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`sj_req_seconds_bucket{type="join",le="1"} 1`,
		`sj_req_seconds_bucket{type="ping",le="+Inf"} 1`,
		`sj_req_seconds_count{type="join"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryGet(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(r, "h", "", nil)
	if got := r.Get("h"); got != h {
		t.Fatalf("Get returned %v, want the histogram", got)
	}
	if r.Get("missing") != nil {
		t.Fatal("Get(missing) != nil")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	NewCounter(r, "dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewCounter(r, "dup", "")
}

// TestConcurrentUpdates exercises every metric type from many
// goroutines; run under -race this is the data-race net for the
// lock-free paths.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := NewCounter(r, "c", "")
	g := NewGauge(r, "g", "")
	h := NewHistogram(r, "h", "", []float64{1, 2, 4})
	cv := NewCounterVec(r, "cv", "", "l")
	hv := NewHistogramVec(r, "hv", "", "l", []float64{1})

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			label := string(rune('a' + w%3))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%5) * 0.9)
				cv.With(label).Inc()
				hv.With(label).Observe(0.5)
				if i%100 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b) // scrape concurrently with writers
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.count.Load() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.count.Load(), workers*iters)
	}
	var total uint64
	for _, l := range []string{"a", "b", "c"} {
		total += cv.With(l).Value()
	}
	if total != workers*iters {
		t.Errorf("vec total = %d, want %d", total, workers*iters)
	}
}
