// Package leakage makes the paper's leakage analysis executable. It
// models the information an honest-but-curious DBMS server learns from a
// series of equi-join queries as sets of revealed equality pairs between
// rows (Section 5.2's trace), computes transitive closures over query
// series with a union-find structure, and provides per-scheme leakage
// simulators reproducing the Section 2.1 comparison:
//
//   - deterministic encryption reveals every equal pair at upload time,
//   - CryptDB's onion encryption reveals every equal pair of the joined
//     columns at the first query touching them,
//   - Hahn et al. reveal pairs among all rows *ever* unwrapped by any
//     query's selection criterion — the union of queries can therefore
//     leak more than the sum of the queries (super-additive leakage),
//   - Secure Join reveals only pairs matched within a single query, so a
//     series leaks exactly the transitive closure of the per-query
//     leakages.
package leakage

import (
	"fmt"
	"sort"
)

// RowRef identifies a row by table name and row index.
type RowRef struct {
	Table string
	Row   int
}

func (r RowRef) String() string { return fmt.Sprintf("%s[%d]", r.Table, r.Row) }

// Pair is an unordered equality pair between two rows whose join values
// the adversary has learned to be equal.
type Pair struct {
	A, B RowRef
}

// normalize orders the endpoints canonically so that Pair values are
// comparable.
func (p Pair) normalize() Pair {
	if p.B.Table < p.A.Table || (p.B.Table == p.A.Table && p.B.Row < p.A.Row) {
		p.A, p.B = p.B, p.A
	}
	return p
}

// PairSet is a set of revealed equality pairs.
type PairSet map[Pair]struct{}

// NewPairSet returns a set containing the given pairs.
func NewPairSet(pairs ...Pair) PairSet {
	s := make(PairSet, len(pairs))
	for _, p := range pairs {
		s.Add(p)
	}
	return s
}

// Add inserts a pair (self-pairs are ignored).
func (s PairSet) Add(p Pair) {
	p = p.normalize()
	if p.A == p.B {
		return
	}
	s[p] = struct{}{}
}

// AddAll inserts every pair of o.
func (s PairSet) AddAll(o PairSet) {
	for p := range o {
		s.Add(p)
	}
}

// Contains reports whether p is in the set.
func (s PairSet) Contains(p Pair) bool {
	_, ok := s[p.normalize()]
	return ok
}

// Len returns the number of pairs.
func (s PairSet) Len() int { return len(s) }

// Equal reports whether s and o contain exactly the same pairs.
func (s PairSet) Equal(o PairSet) bool {
	if len(s) != len(o) {
		return false
	}
	for p := range s {
		if _, ok := o[p]; !ok {
			return false
		}
	}
	return true
}

// Sorted returns the pairs in a deterministic order for display.
func (s PairSet) Sorted() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.A.Table != b.A.Table {
			return a.A.Table < b.A.Table
		}
		if a.A.Row != b.A.Row {
			return a.A.Row < b.A.Row
		}
		if a.B.Table != b.B.Table {
			return a.B.Table < b.B.Table
		}
		return a.B.Row < b.B.Row
	})
	return out
}

// TransitiveClosure returns the closure of s under transitivity of
// equality: if (a,b) and (b,c) are revealed then (a,c) is derivable.
// This is the paper's lower-bound leakage for a series of queries.
func (s PairSet) TransitiveClosure() PairSet {
	uf := NewUnionFind()
	for p := range s {
		uf.Union(p.A, p.B)
	}
	return Expand(uf.Classes())
}

// IsSuperAdditive reports whether observed leaks strictly more than the
// transitive closure of the per-query leakages: the paper's definition
// of super-additive leakage (Section 2.1). perQuery lists sigma(q_i) for
// each query.
func IsSuperAdditive(observed PairSet, perQuery []PairSet) bool {
	union := NewPairSet()
	for _, q := range perQuery {
		union.AddAll(q)
	}
	closure := union.TransitiveClosure()
	for p := range observed {
		if !closure.Contains(p) {
			return true
		}
	}
	return false
}

// UnionFind maintains equivalence classes of row references.
type UnionFind struct {
	parent map[RowRef]RowRef
	grown  map[RowRef]int // |class| - 1 per class root: an unseen row is a class of one
	pairs  int            // pairs within classes, the sum of C(|class|, 2)
}

// NewUnionFind returns an empty structure.
func NewUnionFind() *UnionFind {
	return &UnionFind{parent: make(map[RowRef]RowRef), grown: make(map[RowRef]int)}
}

// Find returns the class representative of x, adding x if unseen.
func (u *UnionFind) Find(x RowRef) RowRef {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.Find(p)
	u.parent[x] = root
	return root
}

// Union merges the classes of a and b, the smaller into the larger, and
// reports whether they were two classes until now.
func (u *UnionFind) Union(a, b RowRef) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	na, nb := u.grown[ra]+1, u.grown[rb]+1
	if na < nb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.grown[ra] = na + nb - 1
	delete(u.grown, rb)
	u.pairs += na * nb // C(na+nb, 2) - C(na, 2) - C(nb, 2)
	return true
}

// Pairs is the size of the closure of the equalities added so far.
func (u *UnionFind) Pairs() int { return u.pairs }

// Classes returns the members of each non-singleton equivalence class.
func (u *UnionFind) Classes() [][]RowRef {
	groups := make(map[RowRef][]RowRef)
	for x := range u.parent {
		r := u.Find(x)
		groups[r] = append(groups[r], x)
	}
	var out [][]RowRef
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool {
			if members[i].Table != members[j].Table {
				return members[i].Table < members[j].Table
			}
			return members[i].Row < members[j].Row
		})
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i][0], out[j][0]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Row < b.Row
	})
	return out
}

// Expand returns the pair set a list of equivalence classes stands for.
func Expand(classes [][]RowRef) PairSet {
	out := NewPairSet()
	for _, members := range classes {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				out.Add(Pair{A: members[i], B: members[j]})
			}
		}
	}
	return out
}
