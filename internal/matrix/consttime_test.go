//go:build !race

package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/zq"
)

// A dudect-style timing check after Reparaz, Balasch and Verbauwhede,
// "Dude, is my code constant time?" (DATE 2017). Each target is timed on
// two classes of secret input, one fixed value (class 0) and fresh
// random values (class 1), with the class of every measurement drawn at
// random so that drift on the machine lands on both alike. Welch's
// t-test then asks whether the two classes' timings have the same mean.
// A constant-time implementation gives |t| near 0; a data-dependent one
// grows |t| with the number of measurements. The race detector's
// instrumentation would swamp what is measured, hence the build tag.

const (
	// ctBudget is the measuring time each target gets.
	ctBudget = 600 * time.Millisecond
	// ctThreshold is the bound dudect's reference implementation calls
	// moderate: |t| above it says the timings depend on the secret. Its
	// lower bound, 4.5, is crossed now and then by constant-time code on
	// a shared two-core machine; the big.Int arithmetic this package
	// used to run on gave |t| in the hundreds.
	ctThreshold = 10.0
)

// ctTarget is one operation under test: fill prepares the inputs of a
// measurement for a class, and run makes the timed calls on them.
type ctTarget struct {
	name string
	fill func(class int)
	run  func()
}

// welch accumulates per-class running means and variances (Welford).
type welch struct {
	n, mean, m2 [2]float64
}

func (w *welch) add(class int, x float64) {
	w.n[class]++
	d := x - w.mean[class]
	w.mean[class] += d / w.n[class]
	w.m2[class] += d * (x - w.mean[class])
}

// t returns Welch's t statistic of the two classes.
func (w *welch) t() float64 {
	v0 := w.m2[0] / (w.n[0] - 1)
	v1 := w.m2[1] / (w.n[1] - 1)
	return (w.mean[0] - w.mean[1]) / math.Sqrt(v0/w.n[0]+v1/w.n[1])
}

// measureCT times tg for ctBudget and returns the largest |t| over the
// uncropped measurements and the ones at or below their 50th and 90th
// percentiles, since interrupts and GC add a long tail to both classes.
func measureCT(tg ctTarget, rng *rand.Rand) (maxT float64, n int) {
	type sample struct {
		class int
		ns    float64
	}
	var samples []sample
	for deadline := time.Now().Add(ctBudget); time.Now().Before(deadline); {
		class := rng.Intn(2)
		tg.fill(class)
		start := time.Now()
		tg.run()
		samples = append(samples, sample{class, float64(time.Since(start))})
	}
	// The first measurements warm caches and the branch predictor.
	samples = samples[len(samples)/10:]
	sorted := make([]float64, len(samples))
	for i, s := range samples {
		sorted[i] = s.ns
	}
	slices.Sort(sorted)
	for _, crop := range []float64{1, 0.9, 0.5} {
		limit := sorted[int(crop*float64(len(sorted)-1))]
		var w welch
		for _, s := range samples {
			if s.ns <= limit {
				w.add(s.class, s.ns)
			}
		}
		if w.n[0] < 2 || w.n[1] < 2 {
			continue // the crop left one class empty: t is undefined
		}
		maxT = max(maxT, math.Abs(w.t()))
	}
	return maxT, len(samples)
}

// TestConstantTime runs the check on the field product and inverse and
// on one row's vector product w*B*, the secret-dependent Z_q work of
// SJ.Enc. Class 0 is the zero secret (a zero vector for MulVec), the
// input on which variable-time arithmetic is fastest.
func TestConstantTime(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped under -short")
	}
	rng := rand.New(rand.NewSource(1))
	// Both classes' fills do the same work, a copy out of a prepared
	// pool, so that nothing run just before the timed calls depends on
	// the class: class 0 copies from a pool of fixed values, class 1
	// from a random window of a pool of random ones.
	const batch = 32
	fixed := make([]zq.Scalar, batch)
	pool := make([]zq.Scalar, 1024)
	for i := range pool {
		s, err := zq.Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = s
	}
	fill := func(dst []zq.Scalar, class int) {
		src := fixed
		if class == 1 {
			off := rng.Intn(len(pool) - len(dst))
			src = pool[off:]
		}
		copy(dst, src[:len(dst)])
	}
	xs := make([]zq.Scalar, batch)
	y := pool[0]
	var sink zq.Scalar
	bStar, err := RandomInvertible(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := zq.NewVector(8)
	var vsink zq.Vector
	targets := []ctTarget{
		{"Scalar.Mul", func(class int) { fill(xs, class) }, func() {
			for _, x := range xs {
				sink = x.Mul(y)
			}
		}},
		// Inverting zero panics, so Inv's fixed class is 1.
		{"Scalar.Inv", func(class int) {
			fixed[0] = zq.One()
			fill(xs[:1], class)
			fixed[0] = zq.Zero()
		}, func() { sink = xs[0].Inv() }},
		{"MulVec (d = 8)", func(class int) { fill(w, class) }, func() { vsink = bStar.MulVec(w) }},
	}
	for _, tg := range targets {
		tval, n := measureCT(tg, rng)
		t.Logf("%s: |t| = %.2f over %d measurements (threshold %.1f)", tg.name, tval, n, ctThreshold)
		if tval > ctThreshold {
			t.Errorf("%s: timing depends on the secret input, |t| = %.2f > %.1f", tg.name, tval, ctThreshold)
		}
	}
	_, _ = sink, vsink
}
