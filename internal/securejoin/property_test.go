package securejoin

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRandomizedMatchProperty is a randomized end-to-end property test
// of the scheme's match semantics: for random tables over a small value
// universe and random IN-clause selections, the encrypted hash join
// must return exactly the pairs a plaintext join would. This covers the
// full statement of Theorem 5.2 on arbitrary (not hand-picked) inputs.
func TestRandomizedMatchProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized property test is slow")
	}
	const (
		trials    = 4
		rowsA     = 6
		rowsB     = 8
		joinSpace = 3 // few join values => plenty of collisions
		attrSpace = 4
		maxT      = 2
	)
	rng := rand.New(rand.NewSource(7))
	s := newTestScheme(t, 1, maxT)

	for trial := 0; trial < trials; trial++ {
		makeRows := func(n int) ([]Row, []string, []string) {
			rows := make([]Row, n)
			joins := make([]string, n)
			attrs := make([]string, n)
			for i := range rows {
				joins[i] = fmt.Sprintf("j%d", rng.Intn(joinSpace))
				attrs[i] = fmt.Sprintf("a%d", rng.Intn(attrSpace))
				rows[i] = Row{JoinValue: []byte(joins[i]), Attrs: [][]byte{[]byte(attrs[i])}}
			}
			return rows, joins, attrs
		}
		tableA, joinsA, attrsA := makeRows(rowsA)
		tableB, joinsB, attrsB := makeRows(rowsB)

		ctA, err := encryptTable(s, tableA)
		if err != nil {
			t.Fatal(err)
		}
		ctB, err := encryptTable(s, tableB)
		if err != nil {
			t.Fatal(err)
		}

		// Random IN clauses of size 1..maxT per table.
		pick := func() ([][]byte, map[string]bool) {
			k := 1 + rng.Intn(maxT)
			vals := make([][]byte, 0, k)
			set := map[string]bool{}
			for len(vals) < k {
				v := fmt.Sprintf("a%d", rng.Intn(attrSpace))
				if set[v] {
					continue
				}
				set[v] = true
				vals = append(vals, []byte(v))
			}
			return vals, set
		}
		valsA, setA := pick()
		valsB, setB := pick()

		q, err := s.NewQuery(Selection{0: valsA}, Selection{0: valsB})
		if err != nil {
			t.Fatal(err)
		}
		das, err := DecryptTable(q.TokenA, ctA)
		if err != nil {
			t.Fatal(err)
		}
		dbs, err := DecryptTable(q.TokenB, ctB)
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]int]bool{}
		for _, p := range HashJoin(das, dbs) {
			got[[2]int{p.RowA, p.RowB}] = true
		}

		// Plaintext reference join.
		want := map[[2]int]bool{}
		for i := 0; i < rowsA; i++ {
			if !setA[attrsA[i]] {
				continue
			}
			for j := 0; j < rowsB; j++ {
				if !setB[attrsB[j]] {
					continue
				}
				if joinsA[i] == joinsB[j] {
					want[[2]int{i, j}] = true
				}
			}
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d (sel A=%q B=%q)",
				trial, len(got), len(want), valsA, valsB)
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("trial %d: missing pair %v", trial, p)
			}
		}
	}
}
