package securejoin

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/zq"
)

// buildExampleTables returns the Teams and Employees tables of
// Example 2.1 with one filterable attribute each.
func buildExampleTables() (teams, employees []Row) {
	teams = []Row{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database")}},
	}
	employees = []Row{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Programmer")}},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Tester")}},
	}
	return teams, employees
}

func newTestScheme(t testing.TB, m, tt int) *Scheme {
	t.Helper()
	s, err := Setup(Params{M: m, T: tt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExampleQueryT1(t *testing.T) {
	// SELECT * FROM Employees JOIN Teams ON Team = Key
	// WHERE Name = "Web Application" AND Role = "Tester"
	// must return exactly (team 1, employee 2).
	s := newTestScheme(t, 1, 2)
	teams, employees := buildExampleTables()

	ctA, err := encryptTable(s, teams)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := encryptTable(s, employees)
	if err != nil {
		t.Fatal(err)
	}

	q, err := s.NewQuery(
		Selection{0: [][]byte{[]byte("Web Application")}},
		Selection{0: [][]byte{[]byte("Tester")}},
	)
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

	pairs := HashJoin(das, dbs)
	if len(pairs) != 1 || pairs[0].RowA != 0 || pairs[0].RowB != 1 {
		t.Fatalf("expected single match (0,1), got %v", pairs)
	}

	// Nested loop must agree with the hash join.
	nl := NestedLoopJoin(das, dbs)
	if len(nl) != 1 || nl[0] != pairs[0] {
		t.Fatalf("nested loop join disagrees: %v vs %v", nl, pairs)
	}
}

func TestUnselectiveQueryJoinsEverything(t *testing.T) {
	s := newTestScheme(t, 1, 2)
	teams, employees := buildExampleTables()
	ctA, _ := encryptTable(s, teams)
	ctB, _ := encryptTable(s, employees)

	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	das, _ := DecryptTable(q.TokenA, ctA)
	dbs, _ := DecryptTable(q.TokenB, ctB)
	pairs := HashJoin(das, dbs)
	if len(pairs) != 4 {
		t.Fatalf("unfiltered join should yield 4 pairs, got %d: %v", len(pairs), pairs)
	}
}

func TestDifferentQueriesDoNotLink(t *testing.T) {
	// The same row decrypted by two different queries must produce
	// different D values even when both queries' selections match:
	// this is the core of the no-super-additive-leakage property.
	s := newTestScheme(t, 1, 2)
	teams, _ := buildExampleTables()
	ctA, _ := encryptTable(s, teams)

	sel := Selection{0: [][]byte{[]byte("Web Application")}}
	q1, err := s.NewQuery(sel, sel)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.NewQuery(sel, sel)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Decrypt(q1.TokenA, ctA[0])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decrypt(q2.TokenA, ctA[0])
	if err != nil {
		t.Fatal(err)
	}
	if Match(d1, d2) {
		t.Fatal("different queries produced linkable D values")
	}
}

func TestSelfPairsWithinTable(t *testing.T) {
	// Two Employees rows with Team = 1 that both satisfy the selection
	// must yield an intra-table equality pair (the transitive-closure
	// pairs of Example 2.1).
	s := newTestScheme(t, 1, 2)
	employees := []Row{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Tester")}},
	}
	ct, _ := encryptTable(s, employees)
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("Tester")}}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := DecryptTable(q.TokenA, ct)
	if !Match(ds[0], ds[1]) || Match(ds[0], ds[2]) || Match(ds[1], ds[2]) {
		t.Fatal("expected rows 0 and 1, and only them, to decrypt to equal values")
	}
}

func TestINClauseMultipleValues(t *testing.T) {
	s := newTestScheme(t, 1, 3)
	rows := []Row{
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("red")}},
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("green")}},
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("blue")}},
	}
	ct, _ := encryptTable(s, rows)
	other := []Row{{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("any")}}}
	ctO, _ := encryptTable(s, other)

	q, err := s.NewQuery(
		Selection{0: [][]byte{[]byte("red"), []byte("blue")}},
		Selection{},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := DecryptTable(q.TokenA, ct)
	dOther, _ := DecryptTable(q.TokenB, ctO)
	pairs := HashJoin(ds, dOther)
	if len(pairs) != 2 {
		t.Fatalf("IN clause (red, blue) should match rows 0 and 2, got %v", pairs)
	}
	seen := map[int]bool{}
	for _, p := range pairs {
		seen[p.RowA] = true
	}
	if !seen[0] || !seen[2] || seen[1] {
		t.Fatalf("wrong rows matched: %v", pairs)
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := Setup(Params{M: 1, T: 0}, nil); err == nil {
		t.Fatal("T=0 should be rejected")
	}
	s := newTestScheme(t, 1, 2)
	if _, err := s.TokenGen(s.mustKey(t), Selection{5: [][]byte{[]byte("v")}}); err == nil {
		t.Fatal("out-of-range attribute should be rejected")
	}
	if _, err := s.TokenGen(s.mustKey(t), Selection{0: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}); err == nil {
		t.Fatal("oversized IN clause should be rejected")
	}
}

// TestNewQueryMatchesTokenGen pins NewQuery's rng draw order: k, then
// token A's vector, then token B's. Two schemes loaded from one key,
// each reading an identically seeded stream, must mint byte-identical
// tokens whether the pair comes from NewQuery, whose keygens run
// concurrently, or from k := zq.RandomNonZero followed by TokenGen(k,
// selA) and TokenGen(k, selB), and must leave the streams at the same
// offset.
func TestNewQueryMatchesTokenGen(t *testing.T) {
	key, err := newTestScheme(t, 2, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	selA := Selection{0: {[]byte("Web Application"), []byte("Database")}}
	selB := Selection{1: {[]byte("Tester")}}
	for seed := int64(1); seed <= 3; seed++ {
		rngQ, rngT := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		sq, err := LoadScheme(key, rngQ)
		if err != nil {
			t.Fatal(err)
		}
		st, err := LoadScheme(key, rngT)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sq.NewQuery(selA, selB)
		if err != nil {
			t.Fatal(err)
		}
		k, err := zq.RandomNonZero(rngT)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			got  *Token
			sel  Selection
		}{{"A", q.TokenA, selA}, {"B", q.TokenB, selB}} {
			want, err := st.TokenGen(k, c.sel)
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := c.got.MarshalBinary()
			wb, _ := want.MarshalBinary()
			if !bytes.Equal(gb, wb) {
				t.Fatalf("seed %d: NewQuery's token %s differs from TokenGen's", seed, c.name)
			}
		}
		if rngQ.Uint64() != rngT.Uint64() {
			t.Fatalf("seed %d: NewQuery and TokenGen read the rng to different offsets", seed)
		}
	}
}
