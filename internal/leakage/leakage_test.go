package leakage

import "testing"

func ref(table string, row int) RowRef { return RowRef{Table: table, Row: row} }

func TestPairNormalization(t *testing.T) {
	s := NewPairSet()
	s.Add(Pair{A: ref("B", 2), B: ref("A", 1)})
	if !s.Contains(Pair{A: ref("A", 1), B: ref("B", 2)}) {
		t.Fatal("pair order should not matter")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	// Self pairs are ignored.
	s.Add(Pair{A: ref("A", 1), B: ref("A", 1)})
	if s.Len() != 1 {
		t.Fatal("self pair was stored")
	}
}

func TestPairSetOps(t *testing.T) {
	a := NewPairSet(Pair{A: ref("T", 0), B: ref("T", 1)})
	b := NewPairSet(Pair{A: ref("T", 1), B: ref("T", 0)})
	if !a.Equal(b) {
		t.Fatal("sets with same normalized pairs should be equal")
	}
	b.Add(Pair{A: ref("T", 2), B: ref("T", 3)})
	if a.Equal(b) {
		t.Fatal("different sets reported equal")
	}
	a.AddAll(b)
	if a.Len() != 2 {
		t.Fatalf("union has %d pairs", a.Len())
	}
	if got := a.Sorted(); len(got) != 2 || got[0].A.Row > got[1].A.Row {
		t.Fatalf("sorted output wrong: %v", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind()
	uf.Union(ref("A", 0), ref("B", 0))
	uf.Union(ref("B", 0), ref("B", 1))
	if uf.Find(ref("A", 0)) != uf.Find(ref("B", 1)) {
		t.Fatal("transitivity broken")
	}
	if uf.Find(ref("A", 0)) == uf.Find(ref("C", 9)) {
		t.Fatal("disconnected elements reported connected")
	}
	classes := uf.Classes()
	if len(classes) != 1 || len(classes[0]) != 3 {
		t.Fatalf("classes = %v", classes)
	}
}

func TestTransitiveClosure(t *testing.T) {
	s := NewPairSet(
		Pair{A: ref("T", 0), B: ref("T", 1)},
		Pair{A: ref("T", 1), B: ref("T", 2)},
	)
	c := s.TransitiveClosure()
	if c.Len() != 3 {
		t.Fatalf("closure of a 3-chain should have 3 pairs, got %d", c.Len())
	}
	if !c.Contains(Pair{A: ref("T", 0), B: ref("T", 2)}) {
		t.Fatal("derived pair missing from closure")
	}
	// Closure is idempotent.
	if !c.TransitiveClosure().Equal(c) {
		t.Fatal("closure not idempotent")
	}
}

func TestIsSuperAdditive(t *testing.T) {
	q1 := NewPairSet(Pair{A: ref("T", 0), B: ref("T", 1)})
	q2 := NewPairSet(Pair{A: ref("T", 1), B: ref("T", 2)})
	perQuery := []PairSet{q1, q2}

	// Observing exactly the closure is NOT super-additive.
	union := NewPairSet()
	union.AddAll(q1)
	union.AddAll(q2)
	closure := union.TransitiveClosure()
	if IsSuperAdditive(closure, perQuery) {
		t.Fatal("closure itself flagged as super-additive")
	}
	// Observing an unrelated pair IS.
	extra := NewPairSet()
	extra.AddAll(closure)
	extra.Add(Pair{A: ref("T", 7), B: ref("T", 8)})
	if !IsSuperAdditive(extra, perQuery) {
		t.Fatal("extra pair not flagged as super-additive")
	}
}

// example21 builds the tables and query series of Example 2.1.
func example21() (*Table, *Table, []Query) {
	teams := &Table{
		Name:  "Teams",
		Joins: []string{"1", "2"},
		Attrs: [][]string{{"Web Application"}, {"Database"}},
	}
	employees := &Table{
		Name:  "Employees",
		Joins: []string{"1", "1", "2", "2"},
		Attrs: [][]string{{"Programmer"}, {"Tester"}, {"Programmer"}, {"Tester"}},
	}
	queries := []Query{
		{SelA: map[int][]string{0: {"Web Application"}}, SelB: map[int][]string{0: {"Tester"}}},
		{SelA: map[int][]string{0: {"Database"}}, SelB: map[int][]string{0: {"Programmer"}}},
	}
	return teams, employees, queries
}

// TestSection21Timeline checks the exact pair counts of the paper's
// Section 2.1 analysis at t0, t1 and t2 for all four schemes.
func TestSection21Timeline(t *testing.T) {
	teams, employees, queries := example21()

	check := func(name string, got []PairSet, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d time points, want %d", name, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Len() != w {
				t.Errorf("%s at t%d: %d pairs, want %d", name, i, got[i].Len(), w)
			}
		}
	}
	check("deterministic", DeterministicLeakage(teams, employees, queries), []int{6, 6, 6})
	check("cryptdb", CryptDBLeakage(teams, employees, queries), []int{0, 6, 6})
	check("hahn", HahnLeakage(teams, employees, queries), []int{0, 1, 6})
	check("securejoin", SecureJoinLeakage(teams, employees, queries), []int{0, 1, 2})
}

func TestHahnIsSuperAdditiveOnExample(t *testing.T) {
	teams, employees, queries := example21()
	perQuery := []PairSet{
		PerQueryLeakage(teams, employees, queries[0]),
		PerQueryLeakage(teams, employees, queries[1]),
	}
	hahn := HahnLeakage(teams, employees, queries)
	if !IsSuperAdditive(hahn[2], perQuery) {
		t.Fatal("Hahn should be super-additive on Example 2.1")
	}
	sj := SecureJoinLeakage(teams, employees, queries)
	if IsSuperAdditive(sj[2], perQuery) {
		t.Fatal("Secure Join must not be super-additive")
	}
}

func TestPerQueryLeakageContents(t *testing.T) {
	teams, employees, queries := example21()
	sigma1 := PerQueryLeakage(teams, employees, queries[0])
	// Only (Teams[0], Employees[1]) — key 1 with Name=Web Application
	// joins employee 2 (index 1) with Role=Tester.
	if sigma1.Len() != 1 || !sigma1.Contains(Pair{A: ref("Teams", 0), B: ref("Employees", 1)}) {
		t.Fatalf("sigma(q1) = %v", sigma1.Sorted())
	}
}

// TestIntraTablePairs: an unselective query over Employees alone must
// reveal the within-table pairs (b1,b2) and (b3,b4) of Example 2.1.
func TestIntraTablePairs(t *testing.T) {
	teams, employees, _ := example21()
	q := Query{SelA: map[int][]string{}, SelB: map[int][]string{}}
	sigma := PerQueryLeakage(teams, employees, q)
	if !sigma.Contains(Pair{A: ref("Employees", 0), B: ref("Employees", 1)}) {
		t.Fatal("intra-table pair (b1,b2) missing")
	}
	if !sigma.Contains(Pair{A: ref("Employees", 2), B: ref("Employees", 3)}) {
		t.Fatal("intra-table pair (b3,b4) missing")
	}
	if sigma.Len() != 6 {
		t.Fatalf("unselective query should reveal all 6 pairs, got %d", sigma.Len())
	}
}
