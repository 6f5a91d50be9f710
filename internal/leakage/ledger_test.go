package leakage

import (
	"math/rand"
	"testing"
)

// TestLedgerMatchesTransitiveClosure is the ledger's property test: for
// random series of class lists, the incrementally kept partition and
// counts equal what PairSet.TransitiveClosure — the reference — derives
// from the union of the expanded queries, after every query; and the
// merges Add returned rebuild the same ledger from nothing.
func TestLedgerMatchesTransitiveClosure(t *testing.T) {
	tables := []string{"A", "B", "C"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ledger, union := NewLedger(), NewPairSet()
		var merges [][]RowRef
		for q, queries := 0, 1+rng.Intn(8); q < queries; q++ {
			// Classes of 0 to 5 rows over a small universe, so queries
			// overlap, repeat rows within a class and bridge each other.
			classes := make([][]RowRef, rng.Intn(5))
			for i := range classes {
				for n := rng.Intn(6); n > 0; n-- {
					classes[i] = append(classes[i], ref(tables[rng.Intn(len(tables))], rng.Intn(6)))
				}
			}
			added := ledger.Add(classes)
			merges = append(merges, added...)
			if again := ledger.Add(classes); len(again) != 0 {
				t.Fatalf("seed %d query %d: repeating the query merged %v", seed, q, again)
			}

			before := union.TransitiveClosure().Len()
			union.AddAll(Expand(classes))
			want := union.TransitiveClosure()
			if (want.Len() > before) != (len(added) > 0) {
				t.Fatalf("seed %d query %d: closure grew %d -> %d but Add returned %d merges", seed, q, before, want.Len(), len(added))
			}
			checkLedger(t, ledger, want)
		}

		replayed := NewLedger()
		replayed.Add(merges)
		checkLedger(t, replayed, union.TransitiveClosure())
		// The merges are a spanning forest: exactly rows - classes of them.
		rows := 0
		for _, class := range ledger.Classes() {
			rows += len(class)
		}
		if want := rows - len(ledger.Classes()); len(merges) != want {
			t.Fatalf("seed %d: %d merges for %d rows in %d classes, want %d", seed, len(merges), rows, len(ledger.Classes()), want)
		}
	}
}

// checkLedger compares every view of the ledger with the reference
// closure.
func checkLedger(t *testing.T, l *Ledger, want PairSet) {
	t.Helper()
	if got := l.Closure(); !got.Equal(want) {
		t.Fatalf("closure = %v, want %v", got.Sorted(), want.Sorted())
	}
	if l.Pairs() != want.Len() {
		t.Fatalf("Pairs = %d, closure has %d", l.Pairs(), want.Len())
	}
	touching := map[string]int{}
	for p := range want {
		touching[p.A.Table]++
		if p.B.Table != p.A.Table {
			touching[p.B.Table]++
		}
	}
	for table, n := range l.Touching() {
		if n != touching[table] {
			t.Fatalf("Touching[%s] = %d, want %d", table, n, touching[table])
		}
		delete(touching, table)
	}
	if len(touching) != 0 {
		t.Fatalf("Touching misses tables %v", touching)
	}
}
