package leakage

// Ledger is everything a server has learnt from a series of queries,
// kept as what it is: equality closure is an equivalence relation, so
// the ledger is a UnionFind over the rows seen to be equal — its Pairs
// the size of the closure — that reports which equalities were news.
// Its memory is bounded by the rows revealed, whatever the length of the
// series. Not safe for concurrent use.
type Ledger struct{ *UnionFind }

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{NewUnionFind()} }

// Add folds classes of rows known to be equal — one query's sigma —
// into the ledger and returns the merges that changed the partition,
// each a class of two rows: none for a query that teaches nothing new.
// The merges of a series are a spanning forest of its closure, at most
// (rows - classes) of them, and a fresh ledger rebuilds it by Adding them.
func (l *Ledger) Add(classes [][]RowRef) [][]RowRef {
	var merges [][]RowRef
	for _, class := range classes {
		for i := 1; i < len(class); i++ {
			if l.Union(class[0], class[i]) {
				merges = append(merges, []RowRef{class[0], class[i]})
			}
		}
	}
	return merges
}

// Touching counts, per table, the closure pairs with an endpoint in it
// (an intra-table pair counts once): a class of n rows, a of them from
// the table, holds C(n,2) pairs, all but the C(n-a,2) among the others.
func (l *Ledger) Touching() map[string]int {
	out := make(map[string]int)
	for _, class := range l.Classes() {
		n, fromTable := len(class), make(map[string]int)
		for _, r := range class {
			fromTable[r.Table]++
		}
		for table, a := range fromTable {
			out[table] += n*(n-1)/2 - (n-a)*(n-a-1)/2
		}
	}
	return out
}

// Closure expands the classes into the pair set they stand for.
func (l *Ledger) Closure() PairSet { return Expand(l.Classes()) }
