package securejoin

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestDecryptTableParallelMatchesSequential(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	rows := make([]Row, 16)
	for i := range rows {
		rows[i] = Row{
			JoinValue: []byte(fmt.Sprintf("j-%d", i%4)),
			Attrs:     [][]byte{[]byte("a")},
		}
	}
	cts, err := encryptTable(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := DecryptTable(q.TokenA, cts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 32} {
		par, err := DecryptTableParallelWith(q.TokenA.Precompute(), cts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: length mismatch", workers)
		}
		for i := range seq {
			if !Match(seq[i], par[i]) {
				t.Fatalf("workers=%d: row %d differs from sequential result", workers, i)
			}
		}
	}
}

func TestDecryptTableParallelEmpty(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecryptTableParallelWith(q.TokenA.Precompute(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("empty input should give empty output")
	}
}

func TestDecryptTableParallelPropagatesErrors(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("a")}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	cts := []*RowCiphertext{ct, shortCiphertext(ct), ct, ct}
	if _, err := DecryptTableParallelWith(q.TokenA.Precompute(), cts, 3); err == nil {
		t.Fatal("error in one row was swallowed")
	}
}

// shortCiphertext returns ct with its last element dropped, a
// ciphertext of the wrong dimension that fails SJ.Dec at once.
func shortCiphertext(ct *RowCiphertext) *RowCiphertext {
	short := *ct.C
	short.Elems = short.Elems[:len(short.Elems)-1]
	return &RowCiphertext{C: &short}
}

// TestDecryptTableParallelErrorNamesLowestRow: with two corrupt rows
// the pool reports the lower one, as the plain loop does, at every
// worker count. The corrupt rows fail at once while good rows take a
// pairing each, so a pool that reported whichever failure came first,
// or whichever worker failed, would name the higher row on some
// schedules. The pool deals out chunks of eight rows for 24 (RowChunk),
// so the second table puts the first corrupt row in the middle of a
// later chunk, and the second one in the chunk after it.
func TestDecryptTableParallelErrorNamesLowestRow(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("a")}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	pc := q.TokenA.Precompute()
	bad := shortCiphertext(ct)
	for _, c := range []struct {
		rows, bad1, bad2 int
	}{{8, 3, 4}, {24, 12, 17}} {
		cts := make([]*RowCiphertext, c.rows)
		for i := range cts {
			cts[i] = ct
		}
		cts[c.bad1], cts[c.bad2] = bad, bad
		_, want := DecryptTableWith(pc, cts)
		if want == nil || !strings.Contains(want.Error(), fmt.Sprintf("row %d:", c.bad1)) {
			t.Fatalf("serial error = %v, want one naming row %d", want, c.bad1)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for rep := 0; rep < 5; rep++ {
				_, err := DecryptTableParallelWith(pc, cts, workers)
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("%d rows, workers=%d: error %v, want %v", c.rows, workers, err, want)
				}
			}
		}
	}
}

// TestDecryptTableParallelOneWorkerStartsNoGoroutine: with one worker,
// or one row, the pool is the plain loop on the calling goroutine. The
// count may drop while an earlier test's goroutines finish exiting, but
// it must not grow.
func TestDecryptTableParallelOneWorkerStartsNoGoroutine(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{5, 1}, {1, 8}, {0, 8}} {
		before := runtime.NumGoroutine()
		var order []int
		err := ForEachRow(c.n, c.workers, func(i int) error {
			if got := runtime.NumGoroutine(); got > before {
				return fmt.Errorf("%d goroutines inside the pool, %d before it", got, before)
			}
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		if len(order) != c.n || !slices.IsSorted(order) {
			t.Fatalf("n=%d workers=%d: rows ran as %v", c.n, c.workers, order)
		}
	}
}

// TestDecryptTableParallelConcurrentCallers runs several parallel
// decryptions of the same table at once — the engine does exactly this
// when concurrent queries each spin up a worker pool — and checks every
// caller still matches the sequential result. Meaningful under -race.
func TestDecryptTableParallelConcurrentCallers(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	rows := make([]Row, 12)
	for i := range rows {
		rows[i] = Row{
			JoinValue: []byte(fmt.Sprintf("j-%d", i%3)),
			Attrs:     [][]byte{[]byte("a")},
		}
	}
	cts, err := encryptTable(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := DecryptTable(q.TokenA, cts)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			par, err := DecryptTableParallelWith(q.TokenA.Precompute(), cts, 3)
			if err != nil {
				errs <- err
				return
			}
			for i := range seq {
				if !Match(seq[i], par[i]) {
					errs <- fmt.Errorf("caller %d: row %d differs from sequential", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkDecryptParallel measures SJ.Dec over one table as the worker
// count grows; per-row pairings are independent, so speedup should
// track cores until memory bandwidth saturates.
func BenchmarkDecryptParallel(b *testing.B) {
	s, err := Setup(Params{M: 1, T: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, 32)
	for i := range rows {
		rows[i] = Row{
			JoinValue: []byte(fmt.Sprintf("j-%d", i%8)),
			Attrs:     [][]byte{[]byte("a")},
		}
	}
	cts, err := encryptTable(s, rows)
	if err != nil {
		b.Fatal(err)
	}
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DecryptTableParallelWith(q.TokenA.Precompute(), cts, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
