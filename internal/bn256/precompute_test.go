package bn256

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

func randPairBatch(t *testing.T, n int) ([]*G1, []*G2) {
	t.Helper()
	ps := make([]*G1, n)
	qs := make([]*G2, n)
	for i := 0; i < n; i++ {
		var err error
		if _, ps[i], err = RandomG1(rand.Reader); err != nil {
			t.Fatal(err)
		}
		if _, qs[i], err = RandomG2(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	return ps, qs
}

// TestPairBatchPrecomputedMatchesPairBatch pins the fixed-argument
// evaluation against the direct batched pairing over a range of batch
// sizes, and against the product of single pairings.
func TestPairBatchPrecomputedMatchesPairBatch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		ps, qs := randPairBatch(t, n)
		pc := PrecomputePairBatch(qs)
		if pc.Size() != n {
			t.Fatalf("Size() = %d, want %d", pc.Size(), n)
		}
		want := PairBatch(qs, ps)
		got := PairBatchPrecomputed(pc, ps)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("n=%d: precomputed pairing disagrees with PairBatch", n)
		}
		prod := new(GT).SetOne()
		for i := range ps {
			prod.Mul(prod, Pair(qs[i], ps[i]))
		}
		if !got.Equal(prod) {
			t.Fatalf("n=%d: precomputed pairing disagrees with the product of pairings", n)
		}
	}
}

// TestPairBatchPrecomputedReuse checks that one handle evaluated
// against several distinct G1 batches matches PairBatch on each.
func TestPairBatchPrecomputedReuse(t *testing.T) {
	const n = 4
	_, qs := randPairBatch(t, n)
	pc := PrecomputePairBatch(qs)
	for round := 0; round < 3; round++ {
		ps, _ := randPairBatch(t, n)
		want := PairBatch(qs, ps)
		got := PairBatchPrecomputed(pc, ps)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("round %d: precomputed pairing diverged on reuse", round)
		}
	}
}

// TestPairBatchPrecomputedEdgeCases covers the degenerate inputs: a
// point at infinity on either side contributes the identity, the
// single-slot batch agrees with PairBatch, and the empty batch is one.
func TestPairBatchPrecomputedEdgeCases(t *testing.T) {
	infG1 := new(G1).ScalarBaseMult(Order)
	infG2 := new(G2).ScalarBaseMult(Order)
	if !infG1.IsInfinity() || !infG2.IsInfinity() {
		t.Fatal("Order multiple is not the identity")
	}

	t.Run("empty", func(t *testing.T) {
		pc := PrecomputePairBatch(nil)
		got := PairBatchPrecomputed(pc, nil)
		if !got.IsOne() {
			t.Fatal("empty batch is not the identity")
		}
	})

	t.Run("single", func(t *testing.T) {
		ps, qs := randPairBatch(t, 1)
		pc := PrecomputePairBatch(qs)
		got := PairBatchPrecomputed(pc, ps)
		want := PairBatch(qs, ps)
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatal("single-slot batch disagrees with PairBatch")
		}
	})

	t.Run("g1-infinity", func(t *testing.T) {
		ps, qs := randPairBatch(t, 3)
		ps[1] = infG1
		pc := PrecomputePairBatch(qs)
		got := PairBatchPrecomputed(pc, ps)
		want := new(GT).Mul(Pair(qs[0], ps[0]), Pair(qs[2], ps[2]))
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatal("G1 infinity slot disagrees with PairBatch")
		}
	})

	t.Run("g2-infinity", func(t *testing.T) {
		ps, qs := randPairBatch(t, 3)
		qs[2] = infG2
		pc := PrecomputePairBatch(qs)
		got := PairBatchPrecomputed(pc, ps)
		want := new(GT).Mul(Pair(qs[0], ps[0]), Pair(qs[1], ps[1]))
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatal("G2 infinity slot disagrees with PairBatch")
		}
	})

	t.Run("all-infinity", func(t *testing.T) {
		ps := []*G1{infG1, infG1}
		qs := []*G2{infG2, infG2}
		pc := PrecomputePairBatch(qs)
		if !PairBatchPrecomputed(pc, ps).IsOne() {
			t.Fatal("all-infinity batch is not the identity")
		}
	})

	t.Run("mismatched-length-panics", func(t *testing.T) {
		ps, qs := randPairBatch(t, 2)
		pc := PrecomputePairBatch(qs)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on mismatched batch length")
			}
		}()
		PairBatchPrecomputed(pc, ps[:1])
	})
}

// TestPairingPrecompConcurrent shares one handle across goroutines,
// each evaluating its own G1 batch; under -race this doubles as the
// data-race check for the shared read-only program.
func TestPairingPrecompConcurrent(t *testing.T) {
	const n = 3
	const workers = 8
	_, qs := randPairBatch(t, n)
	pc := PrecomputePairBatch(qs)

	type job struct {
		ps   []*G1
		want []byte
	}
	jobs := make([]job, workers)
	for i := range jobs {
		ps, _ := randPairBatch(t, n)
		jobs[i] = job{ps: ps, want: PairBatch(qs, ps).Marshal()}
	}

	var wg sync.WaitGroup
	bad := make([]bool, workers)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := PairBatchPrecomputed(pc, jobs[i].ps)
			if !bytes.Equal(got.Marshal(), jobs[i].want) {
				bad[i] = true
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bad {
		if b {
			t.Fatalf("worker %d: concurrent precomputed pairing diverged", i)
		}
	}
}

// TestPrecomputeBilinearity checks e(kG, P) = e(G, P)^k through the
// precomputed path: the recorded lines of [k]G and of G.
func TestPrecomputeBilinearity(t *testing.T) {
	k, q, err := RandomG2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	pc := PrecomputePairBatch([]*G2{q})
	lhs := PairBatchPrecomputed(pc, []*G1{p})

	g := new(G2).ScalarBaseMult(big.NewInt(1))
	pcG := PrecomputePairBatch([]*G2{g})
	rhs := PairBatchPrecomputed(pcG, []*G1{p})
	rhs = new(GT).Exp(rhs, k)

	if !bytes.Equal(lhs.Marshal(), rhs.Marshal()) {
		t.Fatal("precomputed pairing is not bilinear")
	}
}

// TestRowChunks holds the chunking rule of EvalRows and SJ.Dec's row
// pool for n = 0 .. 40 rows: ceil(n/8) contiguous chunks in order that
// cover the rows, none over eight rows, sizes differing by at most one,
// and no one-row chunk once there are two rows or more.
func TestRowChunks(t *testing.T) {
	for n := 0; n <= 40; n++ {
		k := RowChunks(n)
		if want := (n + 7) / 8; k != want {
			t.Fatalf("n = %d: %d chunks, want %d", n, k, want)
		}
		next, smallest, largest := 0, n, 0
		for c := range k {
			lo, hi := RowChunk(n, c)
			if lo != next || hi <= lo {
				t.Fatalf("n = %d: chunk %d is [%d, %d), want it to start at %d and be non-empty", n, c, lo, hi, next)
			}
			smallest, largest, next = min(smallest, hi-lo), max(largest, hi-lo), hi
		}
		switch {
		case next != n:
			t.Fatalf("n = %d: the chunks end at row %d", n, next)
		case largest > laneRows || largest-smallest > 1:
			t.Fatalf("n = %d: chunk sizes %d to %d", n, smallest, largest)
		case n >= 2 && smallest == 1:
			t.Fatalf("n = %d: a one-row chunk", n)
		}
	}
}
