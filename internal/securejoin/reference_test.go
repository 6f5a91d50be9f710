package securejoin

// Test-local references: row-at-a-time SJ.Dec over a table and the
// quadratic join. The server runs DecryptTableParallelWith and
// HashJoin; these are what the tests compare them against.

// DecryptTable runs SJ.Dec over every row of a table with a full
// Miller loop per row, the naive reference the precomputed paths must
// agree with.
func DecryptTable(tk *Token, cts []*RowCiphertext) ([]DValue, error) {
	out := make([]DValue, len(cts))
	for i, ct := range cts {
		d, err := Decrypt(tk, ct)
		if err != nil {
			return nil, decryptRowError(i, err)
		}
		out[i] = d
	}
	return out, nil
}

// DecryptTableWith runs SJ.Dec over every row of a table through a
// precomputed token on the calling goroutine, the sequential reference
// for DecryptTableParallelWith.
func DecryptTableWith(pc *TokenPrecomp, cts []*RowCiphertext) ([]DValue, error) {
	out := make([]DValue, len(cts))
	for i, ct := range cts {
		d, err := pc.Decrypt(ct)
		if err != nil {
			return nil, decryptRowError(i, err)
		}
		out[i] = d
	}
	return out, nil
}

// NestedLoopJoin compares every (rowA, rowB) pair with SJ.Match
// directly, the quadratic reference HashJoin must agree with.
func NestedLoopJoin(das, dbs []DValue) []MatchPair {
	var out []MatchPair
	for i, da := range das {
		for j, db := range dbs {
			if Match(da, db) {
				out = append(out, MatchPair{RowA: i, RowB: j})
			}
		}
	}
	return out
}
