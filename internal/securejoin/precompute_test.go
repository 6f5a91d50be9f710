package securejoin

import (
	"fmt"
	"sync"
	"testing"
)

// encryptTestTable builds a small table with repeated join values so
// decryptions produce both matching and non-matching D values.
func encryptTestTable(t *testing.T, s *Scheme, n int) []*RowCiphertext {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			JoinValue: []byte(fmt.Sprintf("j-%d", i%4)),
			Attrs:     [][]byte{[]byte(fmt.Sprintf("a-%d", i%2))},
		}
	}
	cts, err := encryptTable(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	return cts
}

// TestPrecomputedDecryptMatchesNaive pins the precomputed SJ.Dec path
// against the naive one: DValues must be byte-identical, both per row
// and over a whole table, so caching and join layers built on DValue
// bytes see no difference.
func TestPrecomputedDecryptMatchesNaive(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	cts := encryptTestTable(t, s, 8)
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}

	naive, err := DecryptTable(q.TokenA, cts)
	if err != nil {
		t.Fatal(err)
	}
	pc := q.TokenA.Precompute()
	fast, err := DecryptTableWith(pc, cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(naive) {
		t.Fatal("length mismatch")
	}
	for i := range naive {
		if string(naive[i]) != string(fast[i]) {
			t.Fatalf("row %d: precomputed DValue differs from naive", i)
		}
		single, err := pc.Decrypt(cts[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(single) != string(naive[i]) {
			t.Fatalf("row %d: single-row precomputed DValue differs from naive", i)
		}
	}
}

// TestPrecomputedDecryptDimensionMismatch checks the precomputed path
// rejects mismatched ciphertext dimensions like the naive one does.
func TestPrecomputedDecryptDimensionMismatch(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	cts := encryptTestTable(t, s, 1)
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	short := *cts[0].C
	short.Elems = short.Elems[:len(short.Elems)-1]
	pc := q.TokenA.Precompute()
	if _, err := pc.Decrypt(&RowCiphertext{C: &short}); err == nil {
		t.Fatal("dimension mismatch not detected")
	}
}

// TestPrecomputedDecryptSharedHandleConcurrent shares one precompute
// handle across goroutines that each decrypt a disjoint stripe of the
// table, as DecryptTableParallelWith's workers do. Under -race this is the
// data-race check for the shared read-only Miller program.
func TestPrecomputedDecryptSharedHandleConcurrent(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	cts := encryptTestTable(t, s, 12)
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := DecryptTable(q.TokenA, cts)
	if err != nil {
		t.Fatal(err)
	}

	pc := q.TokenA.Precompute()
	const workers = 4
	var wg sync.WaitGroup
	bad := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cts); i += workers {
				d, err := pc.Decrypt(cts[i])
				if err != nil {
					bad[w] = err
					return
				}
				if string(d) != string(naive[i]) {
					bad[w] = fmt.Errorf("row %d: concurrent precomputed DValue differs", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range bad {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkDecryptPrecomputed is the headline ablation for the
// fixed-token optimization: SJ.Dec over a 32-row table with a full
// Miller loop per row (naive) against one recorded token program
// shared by all rows (precomputed, including the one-time recording
// cost). Divide ns/op by 32 for the per-row figure.
func BenchmarkDecryptPrecomputed(b *testing.B) {
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

	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecryptTable(q.TokenA, cts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("precomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc := q.TokenA.Precompute()
			if _, err := DecryptTableWith(pc, cts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
