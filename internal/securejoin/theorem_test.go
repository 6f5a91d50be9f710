package securejoin

import "testing"

// TestTheorem52AllCases exercises the eight cases of Theorem 5.2's
// match analysis. D = D' must hold if and only if the two decryptions
// (i) belong to the same query, (ii) have equal join values and (iii)
// both satisfy their selection criteria. Every other combination must
// mismatch (the theorem bounds the failure probability by O(t/q), i.e.
// never in practice).
func TestTheorem52AllCases(t *testing.T) {
	s := newTestScheme(t, 1, 2)

	const (
		joinX = "join-x"
		joinY = "join-y"
		attrP = "pass" // will be in the WHERE clause
		attrF = "fail" // will not
	)
	encrypt := func(join, attr string) *RowCiphertext {
		ct, err := s.Encrypt(Row{JoinValue: []byte(join), Attrs: [][]byte{[]byte(attr)}})
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	sel := Selection{0: [][]byte{[]byte(attrP)}}
	newQ := func() *Query {
		q, err := s.NewQuery(sel, sel)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	dec := func(tk *Token, ct *RowCiphertext) DValue {
		d, err := Decrypt(tk, ct)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	q1 := newQ()
	q2 := newQ()

	cases := []struct {
		name      string
		tkA, tkB  *Token
		rowA      *RowCiphertext
		rowB      *RowCiphertext
		wantMatch bool
	}{
		// Case 1: same query, same join value, both selections hold.
		{"same-q/same-join/sel-holds", q1.TokenA, q1.TokenB,
			encrypt(joinX, attrP), encrypt(joinX, attrP), true},
		// Case 2: same query, same join value, a selection fails.
		{"same-q/same-join/sel-fails", q1.TokenA, q1.TokenB,
			encrypt(joinX, attrP), encrypt(joinX, attrF), false},
		// Case 3: same query, different join values, selections hold.
		{"same-q/diff-join/sel-holds", q1.TokenA, q1.TokenB,
			encrypt(joinX, attrP), encrypt(joinY, attrP), false},
		// Case 4: same query, different join values, a selection fails.
		{"same-q/diff-join/sel-fails", q1.TokenA, q1.TokenB,
			encrypt(joinX, attrF), encrypt(joinY, attrP), false},
		// Case 5: different queries, same join value, selections hold.
		{"diff-q/same-join/sel-holds", q1.TokenA, q2.TokenB,
			encrypt(joinX, attrP), encrypt(joinX, attrP), false},
		// Case 6: different queries, same join value, a selection fails.
		{"diff-q/same-join/sel-fails", q1.TokenA, q2.TokenB,
			encrypt(joinX, attrP), encrypt(joinX, attrF), false},
		// Case 7: different queries, different join values, selections hold.
		{"diff-q/diff-join/sel-holds", q1.TokenA, q2.TokenB,
			encrypt(joinX, attrP), encrypt(joinY, attrP), false},
		// Case 8: different queries, different join values, selection fails.
		{"diff-q/diff-join/sel-fails", q1.TokenA, q2.TokenB,
			encrypt(joinX, attrF), encrypt(joinY, attrF), false},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			da := dec(tc.tkA, tc.rowA)
			db := dec(tc.tkB, tc.rowB)
			if got := Match(da, db); got != tc.wantMatch {
				t.Fatalf("Match = %v, want %v", got, tc.wantMatch)
			}
		})
	}
}

// TestSelfJoinWithinOneTable: the scheme supports arbitrary equi-joins,
// including joining a table with itself via two tokens of the same
// query, which matches rows with equal join values in both copies.
func TestSelfJoinWithinOneTable(t *testing.T) {
	s := newTestScheme(t, 1, 2)
	rows := []Row{
		{JoinValue: []byte("g1"), Attrs: [][]byte{[]byte("a")}},
		{JoinValue: []byte("g2"), Attrs: [][]byte{[]byte("a")}},
		{JoinValue: []byte("g1"), Attrs: [][]byte{[]byte("a")}},
	}
	ct, err := encryptTable(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DecryptTable(q.TokenA, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(ds[0], ds[2]) || Match(ds[0], ds[1]) || Match(ds[1], ds[2]) {
		t.Fatal("self join should find rows 0 and 2, and only them, equal")
	}
}

// TestNonPKFKJoin: join values may repeat in BOTH tables (many-to-many),
// which Hahn et al. cannot handle but Secure Join must.
func TestNonPKFKJoin(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	left := []Row{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("a")}},
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("a")}},
	}
	right := []Row{
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("b")}},
		{JoinValue: []byte("k"), Attrs: [][]byte{[]byte("b")}},
		{JoinValue: []byte("other"), Attrs: [][]byte{[]byte("b")}},
	}
	ctL, _ := encryptTable(s, left)
	ctR, _ := encryptTable(s, right)
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	dl, _ := DecryptTable(q.TokenA, ctL)
	dr, _ := DecryptTable(q.TokenB, ctR)
	pairs := HashJoin(dl, dr)
	if len(pairs) != 4 {
		t.Fatalf("many-to-many join should yield 2x2 = 4 pairs, got %d", len(pairs))
	}
}

// TestMultipleAttributes: selections over two different attributes of
// the same table must both be enforced (conjunction).
func TestMultipleAttributes(t *testing.T) {
	s := newTestScheme(t, 2, 2)
	rows := []Row{
		{JoinValue: []byte("j"), Attrs: [][]byte{[]byte("red"), []byte("large")}},
		{JoinValue: []byte("j"), Attrs: [][]byte{[]byte("red"), []byte("small")}},
		{JoinValue: []byte("j"), Attrs: [][]byte{[]byte("blue"), []byte("large")}},
	}
	ct, _ := encryptTable(s, rows)
	probe := []Row{{JoinValue: []byte("j"), Attrs: [][]byte{[]byte("x"), []byte("y")}}}
	ctP, _ := encryptTable(s, probe)

	q, err := s.NewQuery(
		Selection{0: [][]byte{[]byte("red")}, 1: [][]byte{[]byte("large")}},
		Selection{},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := DecryptTable(q.TokenA, ct)
	dp, _ := DecryptTable(q.TokenB, ctP)
	pairs := HashJoin(ds, dp)
	if len(pairs) != 1 || pairs[0].RowA != 0 {
		t.Fatalf("conjunction should match only row 0, got %v", pairs)
	}
}

// TestShortRowPadding: rows with fewer attributes than M are padded and
// must never satisfy a selection on the missing attribute.
func TestShortRowPadding(t *testing.T) {
	s := newTestScheme(t, 2, 2)
	rows := []Row{
		{JoinValue: []byte("j"), Attrs: [][]byte{[]byte("red")}}, // attr 1 missing
	}
	ct, err := encryptTable(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	probe := []Row{{JoinValue: []byte("j"), Attrs: [][]byte{[]byte("x"), []byte("y")}}}
	ctP, _ := encryptTable(s, probe)

	q, err := s.NewQuery(
		Selection{1: [][]byte{[]byte("anything")}},
		Selection{},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := DecryptTable(q.TokenA, ct)
	dp, _ := DecryptTable(q.TokenB, ctP)
	if pairs := HashJoin(ds, dp); len(pairs) != 0 {
		t.Fatalf("padded attribute should never match, got %v", pairs)
	}

	// Over-long rows are rejected.
	if _, err := s.Encrypt(Row{JoinValue: []byte("j"), Attrs: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}); err == nil {
		t.Fatal("row with too many attributes should be rejected")
	}
}
