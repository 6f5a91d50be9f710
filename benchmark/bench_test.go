package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestSupportedPercentile(tc.n); got != tc.want {
			t.Errorf("n=%d: p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	samples := []float64{40, 10, 30, 20}
	for p, want := range map[float64]float64{0: 10, 50: 25, 75: 32.5, 100: 40} {
		if got := percentile(samples, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("three values: %g %g %g, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 140},
		{Start: 130, End: 150}, // overlaps the first: 110..150 is covered once
		{Start: 120, End: 125}, // inside the first
		{Start: 190, End: 260}, // runs past the parent: only 190..200 counts
		{Start: 20, End: 90},   // before the parent: nothing counts
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time %d ns, want 100 - (40 + 10) = 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d ns, want 100", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.begin("bench.op")
	tr.do("sql.execute", func() error {
		return tr.do("engine.join", func() error { return nil })
	})
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != tr.spans[1].ID {
		t.Fatalf("spans not nested: %+v", tr.spans)
	}
	tt := tr.totals()
	if tt.self["sql.execute"] != tt.dur["sql.execute"]-tt.dur["engine.join"] {
		t.Errorf("self time of sql.execute %v, want its %v minus its child's %v",
			tt.self["sql.execute"], tt.dur["sql.execute"], tt.dur["engine.join"])
	}
}

func TestGrantedShare(t *testing.T) {
	const s = time.Second
	for _, tc := range []struct {
		name              string
		wall, busy, steal time.Duration
		want              float64
	}{
		{"nothing stolen", s, s, 0, 1},
		{"one thread: delayed by all that was stolen", s, 8 * s / 10, 2 * s / 10, 0.8},
		{"two threads: delayed by half of it", s, 16 * s / 10, 4 * s / 10, 0.8},
		{"mostly idle: idle time is not scaled", s, s / 10, s / 10, 0.9},
		{"tick rounding reports more stolen than elapsed", s / 5, 0, 3 * s / 10, minGranted},
	} {
		if got := grantedShare(tc.wall, tc.busy, tc.steal); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.995, v, v * 1.005} }
	noisy := func(v float64) []float64 { return []float64{v * 0.8, v, v * 1.2} }
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	count := metricSpec{Name: "engine.revealed_pairs_per_op", Better: "lower"}
	for _, tc := range []struct {
		name     string
		m        metricSpec
		exact    bool
		old, new []float64
		want     verdict
	}{
		{"inside the bound", lower, false, steady(100), steady(105), unchanged},
		{"beyond the bound", lower, false, steady(100), steady(112), regressed},
		{"better beyond the bound", lower, false, steady(100), steady(80), improved},
		{"higher is better: a drop regresses", higher, false, steady(100), steady(85), regressed},
		{"higher is better: a rise improves", higher, false, steady(100), steady(120), improved},
		{"spread wider than the bound", lower, false, noisy(100), noisy(105), unresolved},
		{"a regression shows through noise", lower, false, noisy(100), noisy(150), regressed},
		{"set-up worse by 50% but under the floor", setup, false, steady(0.2), steady(0.3), unchanged},
		{"set-up worse by 50% and over the floor", setup, false, steady(2), steady(3), regressed},
		{"exact count: any increase", count, true, []float64{286, 286}, []float64{287, 287}, regressed},
		{"exact count: same", count, true, []float64{286, 286}, []float64{286, 286}, unchanged},
		{"exact count: a decrease", count, true, []float64{286, 286}, []float64{280, 280}, improved},
	} {
		if got := judge(tc.m, tc.exact, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestOracle(t *testing.T) {
	row := func(key, sel, payload string) engine.PlainRow {
		return engine.PlainRow{JoinValue: []byte(key), Attrs: [][]byte{[]byte(sel)}, Payload: []byte(payload)}
	}
	d := &dataset{tables: map[string][]engine.PlainRow{
		"A": {row("1", "x", "a0"), row("2", "y", "a1")},
		"B": {row("1", "x", "b0"), row("1", "y", "b1"), row("2", "x", "b2"), row("3", "x", "b3")},
		"C": {row("1", "x", "c0"), row("1", "x", "c1")},
	}}
	all := query{tables: []string{"A", "B"}}
	if got := d.expect(all); got.rows != 3 {
		t.Errorf("A join B: %d rows, want 3", got.rows)
	}
	// cross pairs (a0,b0) (a0,b1) (a1,b2), and b0~b1 inside B
	if got := d.sigma(all, "A", "B"); got != 4 {
		t.Errorf("sigma(A join B) = %d, want 4", got)
	}
	filtered := query{tables: []string{"A", "B"}, in: map[string][]string{"B": {"x"}}}
	if got := d.expect(filtered); got.rows != 2 {
		t.Errorf("A join B where B in (x): %d rows, want 2", got.rows)
	}
	if got := d.sigma(filtered, "A", "B"); got != 2 {
		t.Errorf("sigma with B in (x) = %d, want 2", got)
	}
	three := query{tables: []string{"A", "B", "C"}}
	if got := d.expect(three); got.rows != 4 { // a0 x {b0,b1} x {c0,c1}
		t.Errorf("A join B join C: %d rows, want 4", got.rows)
	}

	// The digest does not depend on row order, and does depend on
	// payloads and on nil against empty.
	var fwd, rev, other, keyOnly resultAcc
	fwd.add([]int{0, 0}, [][]byte{[]byte("a0"), []byte("b0")})
	fwd.add([]int{0, 1}, [][]byte{[]byte("a0"), []byte("b1")})
	rev.add([]int{0, 1}, [][]byte{[]byte("a0"), []byte("b1")})
	rev.add([]int{0, 0}, [][]byte{[]byte("a0"), []byte("b0")})
	other.add([]int{0, 0}, [][]byte{[]byte("a0"), []byte("b0")})
	other.add([]int{0, 1}, [][]byte{[]byte("a0"), []byte("bX")})
	if fwd != rev {
		t.Error("digest depends on row order")
	}
	if fwd == other {
		t.Error("digest ignores payloads")
	}
	keyOnly.add([]int{0, 0}, [][]byte{nil, nil})
	other = resultAcc{}
	other.add([]int{0, 0}, [][]byte{{}, {}})
	if keyOnly == other {
		t.Error("digest does not tell a nil payload from an empty one")
	}
}

// tinySize keeps every workload's shape at a size where the whole smoke
// test sets up eight servers and finishes in seconds.
var tinySize = sizing{
	scanScale:   0.00002, // 3 Customers, 30 Orders
	seriesScale: 0.00003, // 4 Customers, 45 Orders, 4 Profiles
	jobScale:    0.00001, // 50 Contacts, 15 Orders of one customer
	ingestScale: 0.00003, // 45 Orders, of which 8 tables of 4
	ingestRows:  4,
	kernelCalls: 2,
}

// TestSmoke runs every workload with and without tracing for a few
// operations and requires that each metric BENCHMARK.json declares is
// printed exactly once per workload, with its unit, and that nothing
// failed against the oracle.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	workloads := tinySize.workloads()
	if len(workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads implemented, BENCHMARK.json names %d", len(workloads), len(spec.Workloads))
	}
	cfg := runConfig{outDir: t.TempDir(), seed: 7, seconds: 0.05, setupReps: 1, spec: spec}
	for i, w := range workloads {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json names %s", i, w.name, spec.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				res, err := runOne(w, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var out bytes.Buffer
				printResult(&out, w.name, spec.metrics(traced), res)
				lines := strings.Split(out.String(), "\n")
				for _, m := range spec.metrics(traced) {
					seen := 0
					for _, line := range lines {
						f := strings.Fields(line)
						if len(f) == 4 && f[0] == w.name && f[1] == m.Name && f[3] == m.Unit {
							seen++
						}
					}
					if seen != 1 {
						t.Errorf("metric %s [%s] printed %d times", m.Name, m.Unit, seen)
					}
					if v := res.Metrics[m.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v", m.Name, v)
					}
				}
				if !traced {
					for _, name := range []string{"setup_s", "op_p50_ms", "ops_per_s", "cpu_ms_per_op", "live_heap_mb"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, must be positive", name, res.Metrics[name].Value)
						}
					}
					return
				}
				// What separates the workloads, layer by layer.
				dec := res.Metrics["engine.rows_decrypted_per_op"].Value
				sj := res.Metrics["trace.securejoin_share"].Value
				switch w.name {
				case "scan_cold":
					// no threshold on the share: it is a ratio of two timings
					if dec != 33 || sj <= 0 {
						t.Errorf("scan_cold decrypts %v rows per op (want 33) with %.2f of its time under securejoin", dec, sj)
					}
				case "job_replay", "ingest":
					if dec != 0 || sj != 0 {
						t.Errorf("%s must not reach SJ.Dec: %v rows per op, securejoin share %v", w.name, dec, sj)
					}
				}
				if hit := res.Metrics["engine.deccache_hit_share"].Value; hit != 0 {
					t.Errorf("decrypt cache hit share %v: every query draws a fresh key, nothing can hit", hit)
				}
				if shed := res.Metrics["server.shed_total"].Value; shed != 0 {
					t.Errorf("%v requests shed", shed)
				}
			})
		}
	}
}
