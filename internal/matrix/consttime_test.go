//go:build !race

package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bn256"
	"repro/internal/zq"
)

// A dudect-style timing check after Reparaz, Balasch and Verbauwhede,
// "Dude, is my code constant time?" (DATE 2017). Each target is timed on
// two classes of secret input, one fixed value (class 0) and fresh
// random values (class 1). Every measurement is a pair: both classes
// timed back to back, in random order, so that a burst of load from
// another process lands on both halves of the pairs it covers rather
// than on one class's samples. A one-sample t-test then asks whether
// the paired differences have mean zero. A constant-time implementation
// gives |t| near 0; a data-dependent one grows |t| with the number of
// pairs. The race detector's instrumentation would swamp what is
// measured, hence the build tag.

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

// meanT accumulates a running mean and variance (Welford).
type meanT struct {
	n, mean, m2 float64
}

func (w *meanT) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / w.n
	w.m2 += d * (x - w.mean)
}

// t returns the one-sample t statistic of a zero mean.
func (w *meanT) t() float64 {
	return w.mean / math.Sqrt(w.m2/(w.n-1)/w.n)
}

// ctResult is what measureCT found on the crop with the largest |t|:
// the signed t (negative when class 0 is the faster), each class's mean
// time over that crop, and the pairs in the crop and in all.
type ctResult struct {
	t            float64
	crop         float64
	mean0, mean1 float64 // ns
	cropped, n   int
}

// measureCT times tg for ctBudget and returns the largest |t| of the
// paired differences (class 0 minus class 1) over all pairs and over
// the pairs whose slower half is at or below the 50th and 90th
// percentiles, since interrupts and GC add a long tail to both classes.
func measureCT(tg ctTarget, rng *rand.Rand) ctResult {
	var pairs [][2]float64
	for deadline := time.Now().Add(ctBudget); time.Now().Before(deadline); {
		var ns [2]float64
		first := rng.Intn(2)
		for _, class := range [2]int{first, 1 - first} {
			tg.fill(class)
			start := time.Now()
			tg.run()
			ns[class] = float64(time.Since(start))
		}
		pairs = append(pairs, ns)
	}
	// The first measurements warm caches and the branch predictor.
	pairs = pairs[len(pairs)/10:]
	sorted := make([]float64, len(pairs))
	for i, p := range pairs {
		sorted[i] = max(p[0], p[1])
	}
	slices.Sort(sorted)
	res := ctResult{n: len(pairs)}
	for _, crop := range []float64{1, 0.9, 0.5} {
		limit := sorted[int(crop*float64(len(sorted)-1))]
		var w meanT
		var sum0, sum1 float64
		for _, p := range pairs {
			if max(p[0], p[1]) <= limit {
				w.add(p[0] - p[1])
				sum0 += p[0]
				sum1 += p[1]
			}
		}
		if w.n < 2 {
			continue // the crop left no spread: t is undefined
		}
		if t := w.t(); math.Abs(t) > math.Abs(res.t) {
			res.t, res.crop, res.cropped = t, crop, int(w.n)
			res.mean0, res.mean1 = sum0/w.n, sum1/w.n
		}
	}
	return res
}

// TestConstantTime runs the check on the field product and inverse, on
// one row's vector product w*B*, the secret-dependent Z_q work of
// SJ.Enc, and on the base multiplications that follow it,
// bn256.BaseMultG1s on eight scalars and on sixteen (two chunks made
// affine with one shared inversion, as a block of SJ.Enc rows is), and
// TokenGen's, bn256.BaseMultG2s on eight (on a CPU with AVX-512 IFMA,
// one lane comb per chunk). Class 0 is the zero secret (a zero vector
// for MulVec, zero scalars for the base multiplications, where every
// comb digit is zero, no keep mask is set and every result is the point
// at infinity), the input on which variable-time arithmetic is fastest.
// A failure reports the signed t, each class's mean time and the pairs
// it was measured over.
func TestConstantTime(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement; skipped under -short")
	}
	rng := rand.New(rand.NewSource(1))
	// Both classes' fills do the same memory work, so that nothing run
	// just before the timed calls depends on the class but the values:
	// each draws a window offset from rng and copies that window out of
	// a pool of poolSize elements, class 0 out of a pool of fixed values,
	// class 1 out of a pool of random ones. Every pool is written element
	// by element, so no pool sits on pages the kernel has not yet backed.
	const batch, poolSize = 32, 1024
	zeros, ones, random := make([]zq.Scalar, poolSize), make([]zq.Scalar, poolSize), make([]zq.Scalar, poolSize)
	kZeros, kRandom := make([][32]byte, poolSize), make([][32]byte, poolSize)
	for i := range random {
		s, err := zq.Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		zeros[i], ones[i], random[i] = zq.Zero(), zq.One(), s
		kZeros[i] = [32]byte{}
		s.Put(&kRandom[i])
	}
	fill := func(dst, fixed []zq.Scalar, class int) {
		off := rng.Intn(poolSize - len(dst))
		copy(dst, [2][]zq.Scalar{fixed, random}[class][off:])
	}
	xs := make([]zq.Scalar, batch)
	y := random[0]
	var sink zq.Scalar
	bStar, err := RandomInvertible(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := zq.NewVector(8)
	var vsink zq.Vector
	var ks [8][32]byte
	var ks16 [16][32]byte
	g1s := make([]*bn256.G1, len(ks16))
	g2s := make([]*bn256.G2, len(ks))
	for i := range g1s {
		g1s[i] = new(bn256.G1)
	}
	for i := range g2s {
		g2s[i] = new(bn256.G2)
	}
	fillKsTo := func(dst [][32]byte, class int) {
		off := rng.Intn(poolSize - len(dst))
		copy(dst, [2][][32]byte{kZeros, kRandom}[class][off:])
	}
	fillKs := func(class int) { fillKsTo(ks[:], class) }
	targets := []ctTarget{
		{"Scalar.Mul", func(class int) { fill(xs, zeros, class) }, func() {
			for _, x := range xs {
				sink = x.Mul(y)
			}
		}},
		// Inverting zero panics, so Inv's fixed class is 1.
		{"Scalar.Inv", func(class int) { fill(xs[:1], ones, class) }, func() { sink = xs[0].Inv() }},
		{"MulVec (d = 8)", func(class int) { fill(w, zeros, class) }, func() { vsink = bStar.MulVec(w) }},
		{"BaseMultG1s (8 scalars)", fillKs, func() { bn256.BaseMultG1s(g1s[:len(ks)], ks[:]) }},
		{"BaseMultG1s (16 scalars, one inversion)", func(class int) { fillKsTo(ks16[:], class) },
			func() { bn256.BaseMultG1s(g1s, ks16[:]) }},
		{"BaseMultG2s (8 scalars)", fillKs, func() { bn256.BaseMultG2s(g2s, ks[:]) }},
	}
	for _, tg := range targets {
		r := measureCT(tg, rng)
		t.Logf("%s: |t| = %.2f over %d pairs (threshold %.1f)", tg.name, math.Abs(r.t), r.n, ctThreshold)
		if math.Abs(r.t) > ctThreshold {
			t.Errorf("%s: timing depends on the secret input, |t| = %.2f > %.1f: t = %+.2f over the %d of %d pairs "+
				"whose slower half is at or below the %.0fth percentile, class 0 mean %.0f ns, class 1 mean %.0f ns",
				tg.name, math.Abs(r.t), ctThreshold, r.t, r.cropped, r.n, 100*r.crop, r.mean0, r.mean1)
		}
	}
	_, _ = sink, vsink
}
