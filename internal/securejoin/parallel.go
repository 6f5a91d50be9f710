package securejoin

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bn256"
)

// ForEachRow is the row pool behind SJ.Dec and SJ.Enc of a table
// (Section 6.5: per-row work parallelizes trivially). A "row" here is
// the caller's unit: SJ.Dec deals chunks of rows (bn256.RowChunk) and
// SJ.Enc blocks of rows (Scheme.BlockRows). It runs row(i) for every i
// in [0, n) on up to workers goroutines (0 means GOMAXPROCS), the
// calling goroutine one of them. Workers claim rows in increasing order
// from one counter and claim none once a row has failed, so every row
// below the first failure has run and the error returned is the lowest
// failing row's, as in the plain loop. row(i) must write only row i's
// output and read no rng: callers draw randomness before the pool, in
// row order, so seeded outputs do not depend on the worker count. With
// one worker, or n <= 1, it is the plain loop on the calling goroutine.
func ForEachRow(n, workers int, row func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := row(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Each worker stops at its first failure, which is its lowest: a
	// worker claims rows in increasing order.
	errs := make([]error, workers)
	errRows := make([]int, workers)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w int) {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := row(i); err != nil {
				errs[w], errRows[w] = err, i
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()

	var first error
	firstRow := n
	for w, err := range errs {
		if err != nil && errRows[w] < firstRow {
			first, firstRow = err, errRows[w]
		}
	}
	return first
}

// DecryptTableParallelWith runs SJ.Dec over a table on the row pool
// with up to workers goroutines (0 means GOMAXPROCS), through a token
// whose Miller program is recorded once and shared read-only by all
// workers: a join stream decrypting many probe batches under one token
// pays the precompute once, not per batch or per worker. The pool deals
// out the chunks EvalRows would cut (bn256.RowChunk: ceil(n/8) chunks of
// near-equal size, so no one-row chunk from two rows on), not single
// rows, because the pairing evaluates a chunk together: a table of
// eight rows or fewer is one chunk on the calling goroutine. The output
// order matches the input order, and a failure names the lowest failing
// row, as a row-at-a-time loop would: chunks are dealt in order and the
// rows of a chunk are checked in order.
func DecryptTableParallelWith(pc *TokenPrecomp, cts []*RowCiphertext, workers int) ([]DValue, error) {
	out := make([]DValue, len(cts))
	err := ForEachRow(bn256.RowChunks(len(cts)), workers, func(c int) error {
		lo, hi := bn256.RowChunk(len(cts), c)
		if i, err := pc.decryptRows(cts[lo:hi], out[lo:hi]); err != nil {
			return decryptRowError(lo+i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
