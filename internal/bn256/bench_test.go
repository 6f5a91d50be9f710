package bn256

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// Montgomery-limb field vs a big.Int field, batched multi-pairing vs
// naive per-pair pairing, and the cost split between the Miller loop
// and the final exponentiation.

// gfPSink keeps the compiler from discarding a benchmarked result.
var gfPSink gfP

// BenchmarkGFpMul times the base-field kernels. "montgomery", "add" and
// "sub" repeat one operation on fixed inputs, so independent iterations
// overlap (throughput); "chain" feeds each product into the next,
// x = x*y, so it measures a multiply's latency, which is what the
// dependent arithmetic of the tower pays.
func BenchmarkGFpMul(b *testing.B) {
	x, _ := rand.Int(rand.Reader, P)
	y, _ := rand.Int(rand.Reader, P)
	fx, fy := gfPFromBig(x), gfPFromBig(y)
	var out gfP
	b.Run("montgomery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Mul(fx, fy)
		}
		gfPSink = out
	})
	b.Run("chain", func(b *testing.B) {
		acc := *fx
		for i := 0; i < b.N; i++ {
			acc.Mul(&acc, fy)
		}
		gfPSink = acc
	})
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Add(fx, fy)
		}
		gfPSink = out
	})
	b.Run("sub", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Sub(fx, fy)
		}
		gfPSink = out
	})
	b.Run("bigint", func(b *testing.B) {
		z := new(big.Int)
		for i := 0; i < b.N; i++ {
			z.Mul(x, y)
			z.Mod(z, P)
		}
	})
}

// gfP2Sink keeps the compiler from discarding a benchmarked result.
var gfP2Sink gfP2

// BenchmarkGFp2Mul times the Fp2 kernels the tower is built from: "mul"
// and "square" repeat one operation on fixed inputs (throughput), and
// "chain" feeds each product into the next, x = x*y (latency).
func BenchmarkGFp2Mul(b *testing.B) {
	rnd := func() gfP {
		n, _ := rand.Int(rand.Reader, P)
		return *gfPFromBig(n)
	}
	x, y := gfP2{rnd(), rnd()}, gfP2{rnd(), rnd()}
	var out gfP2
	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Mul(&x, &y)
		}
		gfP2Sink = out
	})
	b.Run("square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Square(&x)
		}
		gfP2Sink = out
	})
	b.Run("chain", func(b *testing.B) {
		acc := x
		for i := 0; i < b.N; i++ {
			acc.Mul(&acc, &y)
		}
		gfP2Sink = acc
	})
}

// gfP12Sink keeps the compiler from discarding a benchmarked result.
var gfP12Sink gfP12

// BenchmarkTower times the tower operations that own an SJ.Dec row: the
// line product and the Fp12 square of the Miller loop, the Fp12 product
// and the cyclotomic square of the final exponentiation, and the Fp6
// product under both Fp12 ones. Each repeats one operation on fixed
// inputs (throughput). The cyclotomic square's input is in the
// cyclotomic subgroup, as in the pairing.
func BenchmarkTower(b *testing.B) {
	rnd := func() gfP {
		n, _ := rand.Int(rand.Reader, P)
		return *gfPFromBig(n)
	}
	rnd2 := func() gfP2 { return gfP2{rnd(), rnd()} }
	rnd6 := func() gfP6 { return gfP6{rnd2(), rnd2(), rnd2()} }
	x, y := gfP12{rnd6(), rnd6()}, gfP12{rnd6(), rnd6()}
	l1, l3 := rnd2(), rnd2()
	cyc := *easyPart(b, &x)
	var out gfP12
	var out6 gfP6
	b.Run("mulLine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.mulLine(&x, &l1, &l3)
		}
		gfP12Sink = out
	})
	b.Run("fp6Mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out6.Mul(&x.c0, &y.c0)
		}
		gfP12Sink.c0 = out6
	})
	b.Run("fp12Square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Square(&x)
		}
		gfP12Sink = out
	})
	b.Run("fp12Mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.Mul(&x, &y)
		}
		gfP12Sink = out
	})
	b.Run("cyclotomicSquare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out.cyclotomicSquare(&cyc)
		}
		gfP12Sink = out
	})
}

// BenchmarkLane times the lane kernels (lanes.go) that BenchmarkTower's
// operations become on AVX-512 IFMA, reporting ns per lane, that is per
// row: an Fp product, the line product and the Fp12 square of the Miller
// loop, the cyclotomic square of the final exponentiation, and the whole
// Miller loop of BenchmarkMillerLoopOnly. The chunkN pairs time one
// chunk of N rows at d = 5 on the row path and on the lanes, the
// measurement behind laneMinRows. Each
// repeats one operation on fixed inputs (throughput). Without IFMA it
// skips.
func BenchmarkLane(b *testing.B) {
	if !useIFMA {
		b.Skip("lane kernels need AVX-512 IFMA, which this CPU lacks")
	}
	rnd := func() gfP {
		n, _ := rand.Int(rand.Reader, P)
		return *gfPFromBig(n)
	}
	var x, y, cyc, out lfp12
	var l1, l3 lfp2
	for k := 0; k < laneRows; k++ {
		var a, c gfP12
		for _, e := range []*gfP12{&a, &c} {
			for _, f := range []*gfP2{&e.c0.b0, &e.c0.b1, &e.c0.b2, &e.c1.b0, &e.c1.b1, &e.c1.b2} {
				*f = gfP2{rnd(), rnd()}
			}
		}
		x.set(k, &a)
		y.set(k, &c)
		cyc.set(k, easyPart(b, &a))
		l1.set(k, &gfP2{rnd(), rnd()})
		l3.set(k, &gfP2{rnd(), rnd()})
	}
	perLane := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*laneRows), "ns/lane")
	}
	b.Run("fpMul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lfpMul(&out[0][0][0], &x[0][0][0], &y[0][0][0])
		}
		perLane(b)
	})
	b.Run("mulLine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lfp12MulLine(&out, &x, &l1, &l3)
		}
		perLane(b)
	})
	b.Run("fp12Square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lfp12Square(&out, &x)
		}
		perLane(b)
	})
	b.Run("cyclotomicSquare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lfp12CyclotomicSquare(&out, &cyc)
		}
		perLane(b)
	})
	// The Miller loop of BenchmarkMillerLoopOnly (one G2 slot) on eight
	// rows at once.
	_, q, _ := RandomG2(rand.Reader)
	pc := PrecomputePairBatch([]*G2{q})
	rows := make([][]*G1, laneRows)
	for r := range rows {
		rows[r] = randomAffineG1s(1)
	}
	pts := pc.points(rows)
	b.Run("miller", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc.millerLanes(pts, laneRows)
		}
		perLane(b)
	})
	// The chunk sizes around laneMinRows at d = 5, both ways: a chunk
	// of n rows on the row path and on the lanes, in ns per chunk.
	const d = 5
	qs := make([]*G2, d)
	for j := range qs {
		_, qs[j], _ = RandomG2(rand.Reader)
	}
	pc5 := PrecomputePairBatch(qs)
	for n := 1; n <= 3; n++ {
		rows := make([][]*G1, n)
		for r := range rows {
			rows[r] = randomAffineG1s(d)
		}
		pts := pc5.points(rows)
		out := make([]GT, n)
		pc5.evalLanes(pts, out) // builds the lane coefficients outside the timer
		b.Run(fmt.Sprintf("chunk%d/rows", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pc5.evalRows(pts, out)
			}
		})
		b.Run(fmt.Sprintf("chunk%d/lanes", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pc5.evalLanes(pts, out)
			}
		})
	}
}

// BenchmarkComb times the two halves of the comb's loop body (comb.go):
// the select of a table entry and the mixed addition into the
// accumulator, in each group, as ScalarBaseMult runs them 43 times. The
// select reads row 21 at digit -17; the addition adds a table entry to a
// point with Z != 1. Each repeats one operation on fixed inputs
// (throughput). Under the purego tag they time the Go code.
func BenchmarkComb(b *testing.B) {
	g1CombOnce.Do(func() { buildG1Comb(&g1Comb) })
	g2CombOnce.Do(func() { buildG2Comb(&g2Comb) })
	var q1 g1Affine
	var q2 g2Affine
	b.Run("select/g1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g1Comb[21].selectEntry(&q1, 17, 1)
		}
	})
	b.Run("select/g2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g2Comb[21].selectEntry(&q2, 17, 1)
		}
	})
	var p1, r1 g1Proj
	var p2, r2 g2Proj
	p1.y.SetOne()
	p2.y.SetOne()
	addMixedG1(&p1, &p1, &g1Comb[3][5])
	addMixedG1(&p1, &p1, &g1Comb[7][9])
	addMixedG2(&p2, &p2, &g2Comb[3][5])
	addMixedG2(&p2, &p2, &g2Comb[7][9])
	b.Run("addMixed/g1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r1.addMixed(&p1, &g1Comb[21][16])
		}
	})
	b.Run("addMixed/g2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addMixedG2(&r2, &p2, &g2Comb[21][16])
		}
	})
}

func BenchmarkGFpInvert(b *testing.B) {
	x, _ := rand.Int(rand.Reader, P)
	fx := gfPFromBig(x)
	var out gfP
	for i := 0; i < b.N; i++ {
		out.Invert(fx)
	}
}

// randomAffineG1s returns n random G1 points with z = 1, the form
// G1.Unmarshal gives every stored row element, so a pairing benchmark
// does not time a Fermat inversion per slot that SJ.Dec never pays.
func randomAffineG1s(n int) []*G1 {
	ps := make([]*G1, n)
	for i := range ps {
		_, ps[i], _ = RandomG1(rand.Reader)
	}
	NormalizeG1(ps)
	return ps
}

func BenchmarkG1ScalarBaseMult(b *testing.B) {
	k, _ := rand.Int(rand.Reader, Order)
	var e G1
	for i := 0; i < b.N; i++ {
		e.ScalarBaseMult(k)
	}
}

func BenchmarkG2ScalarBaseMult(b *testing.B) {
	k, _ := rand.Int(rand.Reader, Order)
	var e G2
	for i := 0; i < b.N; i++ {
		e.ScalarBaseMult(k)
	}
}

func BenchmarkPairing(b *testing.B) {
	p := randomAffineG1s(1)[0]
	_, q, _ := RandomG2(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(q, p)
	}
}

func BenchmarkMillerLoopOnly(b *testing.B) {
	p := randomAffineG1s(1)[0]
	_, q, _ := RandomG2(rand.Reader)
	pc := PrecomputePairBatch([]*G2{q})
	pts := pc.points([][]*G1{{p}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.miller(pts.xs, pts.ys, pts.skip)
	}
}

func BenchmarkFinalExponentiationOnly(b *testing.B) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	pc := PrecomputePairBatch([]*G2{q})
	pts := pc.points([][]*G1{{p}})
	f := pc.miller(pts.xs, pts.ys, pts.skip)
	fs := make([]gfP12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs[0] = f
		finalExponentiationBatch(fs)
	}
}

// BenchmarkPairBatchedVsNaive quantifies the multi-pairing saving: SJ
// decryption pairs d = m(t+1)+3 elements; the batched Miller loop
// shares the squaring chain and pays one final exponentiation instead
// of d.
func BenchmarkPairBatchedVsNaive(b *testing.B) {
	const d = 5 // m=1, t=1
	ps := randomAffineG1s(d)
	qs := make([]*G2, d)
	for i := range qs {
		_, qs[i], _ = RandomG2(rand.Reader)
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PairBatch(qs, ps)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := new(GT).SetOne()
			for j := 0; j < d; j++ {
				acc.Mul(acc, Pair(qs[j], ps[j]))
			}
		}
	})
}

// BenchmarkPairBatchPrecomputed quantifies the fixed-argument saving:
// with the G2 side recorded once, each evaluation pays only the line
// evaluations at P, the accumulator squarings, and the final
// exponentiation — the twist-point chain and the line normalization
// are gone. "evaluate" is one row; "evaluate8" is one chunk of eight
// rows through EvalRows, on the lane kernels where the CPU has them,
// and reports its time per row as ns/row.
func BenchmarkPairBatchPrecomputed(b *testing.B) {
	const d = 5 // m=1, t=1
	ps := randomAffineG1s(d)
	qs := make([]*G2, d)
	for i := range qs {
		_, qs[i], _ = RandomG2(rand.Reader)
	}
	b.Run("precompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PrecomputePairBatch(qs)
		}
	})
	pc := PrecomputePairBatch(qs)
	b.Run("evaluate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PairBatchPrecomputed(pc, ps)
		}
	})
	rows := make([][]*G1, laneRows)
	for r := range rows {
		rows[r] = randomAffineG1s(d)
	}
	out := make([]GT, laneRows)
	pc.EvalRows(rows, out) // builds the lane coefficients outside the timer
	b.Run("evaluate8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc.EvalRows(rows, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*laneRows), "ns/row")
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PairBatch(qs, ps)
		}
	})
}

// BenchmarkG2Unmarshal is the per-element cost of a token decode: the
// compressed point's square root plus the G2 membership test.
func BenchmarkG2Unmarshal(b *testing.B) {
	_, q, _ := RandomG2(rand.Reader)
	data := q.Marshal()
	var e G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGTMarshal(b *testing.B) {
	_, p, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	e := Pair(q, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Marshal()
	}
}
