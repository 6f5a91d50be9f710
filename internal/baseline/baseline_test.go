package baseline

import (
	"testing"
)

func TestHahnUnwrapRespectsSelection(t *testing.T) {
	s, err := NewHahnScheme(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.EncryptTable(
		[][]byte{[]byte("j1"), []byte("j1"), []byte("j2")},
		[][]byte{[]byte("red"), []byte("blue"), []byte("red")},
	)
	if err != nil {
		t.Fatal(err)
	}
	st := NewServerState(rows)
	newly := st.Unwrap(s.Token([][]byte{[]byte("red")}))
	if len(newly) != 2 {
		t.Fatalf("token for red should unwrap rows 0 and 2, got %v", newly)
	}
	if _, ok := st.Unwrapped[1]; ok {
		t.Fatal("row with attribute blue was unwrapped by a red token")
	}
	// A second query with the same token unwraps nothing new.
	if again := st.Unwrap(s.Token([][]byte{[]byte("red")})); len(again) != 0 {
		t.Fatalf("re-unwrap yielded %v", again)
	}
}

// withinPairs is the set of intra-table equality pairs the server can
// see among a table's unwrapped rows: its self-join, each unordered
// pair once.
func withinPairs(st *ServerState) []JoinPair {
	var out []JoinPair
	for _, p := range NestedLoopJoin(st, st) {
		if p.RowA < p.RowB {
			out = append(out, p)
		}
	}
	return out
}

// TestHahnSuperAdditiveLeakage reproduces the core weakness: two
// queries with disjoint selections leave the server able to link rows
// that no single query related.
func TestHahnSuperAdditiveLeakage(t *testing.T) {
	s, err := NewHahnScheme(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.1's Employees table: join = team, attr = role.
	rowsB, err := s.EncryptTable(
		[][]byte{[]byte("1"), []byte("1"), []byte("2"), []byte("2")},
		[][]byte{[]byte("Programmer"), []byte("Tester"), []byte("Programmer"), []byte("Tester")},
	)
	if err != nil {
		t.Fatal(err)
	}
	rowsA, err := s.EncryptTable(
		[][]byte{[]byte("1"), []byte("2")},
		[][]byte{[]byte("Web Application"), []byte("Database")},
	)
	if err != nil {
		t.Fatal(err)
	}
	stA := NewServerState(rowsA)
	stB := NewServerState(rowsB)

	// Query 1: Name=Web Application AND Role=Tester.
	stA.Unwrap(s.Token([][]byte{[]byte("Web Application")}))
	stB.Unwrap(s.Token([][]byte{[]byte("Tester")}))
	cross1, withinB1 := NestedLoopJoin(stA, stB), withinPairs(stB)
	if len(cross1) != 1 || len(withinB1) != 0 {
		t.Fatalf("after q1: cross=%v within=%v", cross1, withinB1)
	}

	// Query 2: Name=Database AND Role=Programmer.
	stA.Unwrap(s.Token([][]byte{[]byte("Database")}))
	stB.Unwrap(s.Token([][]byte{[]byte("Programmer")}))
	cross2, withinB2 := NestedLoopJoin(stA, stB), withinPairs(stB)

	// Super-additive: all four employees are now unwrapped, so the
	// server sees 4 cross pairs and 2 within-Employees pairs = 6 total,
	// even though the two queries individually revealed 1 pair each.
	if len(cross2) != 4 {
		t.Fatalf("after q2 expected 4 cross pairs, got %v", cross2)
	}
	if len(withinB2) != 2 {
		t.Fatalf("after q2 expected 2 within pairs, got %v", withinB2)
	}
}

func TestHahnNestedLoopJoinCorrect(t *testing.T) {
	s, err := NewHahnScheme(nil)
	if err != nil {
		t.Fatal(err)
	}
	rowsA, _ := s.EncryptTable([][]byte{[]byte("k")}, [][]byte{[]byte("a")})
	rowsB, _ := s.EncryptTable([][]byte{[]byte("k"), []byte("other")}, [][]byte{[]byte("a"), []byte("a")})
	stA, stB := NewServerState(rowsA), NewServerState(rowsB)
	stA.Unwrap(s.Token([][]byte{[]byte("a")}))
	stB.Unwrap(s.Token([][]byte{[]byte("a")}))
	pairs := NestedLoopJoin(stA, stB)
	if len(pairs) != 1 || pairs[0] != (JoinPair{RowA: 0, RowB: 0}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestHahnEncryptTableValidation(t *testing.T) {
	s, err := NewHahnScheme(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EncryptTable([][]byte{[]byte("a")}, nil); err == nil {
		t.Fatal("mismatched lengths should be rejected")
	}
}
