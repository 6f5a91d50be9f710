package securejoin

import "testing"

func TestSchemeCodecRoundTrip(t *testing.T) {
	s := newTestScheme(t, 1, 2)
	rows := []Row{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("a")}},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("b")}},
	}
	cts, err := encryptTable(s, rows)
	if err != nil {
		t.Fatal(err)
	}

	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadScheme(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Params() != s.Params() {
		t.Fatalf("params %+v, want %+v", restored.Params(), s.Params())
	}

	// Tokens from the restored scheme must unlock ciphertexts produced
	// by the original scheme.
	q, err := restored.NewQuery(
		Selection{0: [][]byte{[]byte("a")}},
		Selection{},
	)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := restored.Encrypt(Row{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	da, err := Decrypt(q.TokenA, cts[0])
	if err != nil {
		t.Fatal(err)
	}
	db, err := Decrypt(q.TokenB, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(da, db) {
		t.Fatal("restored scheme cannot match original ciphertexts")
	}
	// Row with non-matching attribute must not match.
	dOther, err := Decrypt(q.TokenA, cts[1])
	if err != nil {
		t.Fatal(err)
	}
	if Match(dOther, db) {
		t.Fatal("selection semantics lost after key reload")
	}
}

func TestLoadSchemeRejectsMalformed(t *testing.T) {
	if _, err := LoadScheme(nil, nil); err == nil {
		t.Fatal("nil encoding accepted")
	}
	if _, err := LoadScheme([]byte{0, 0, 0, 1, 0, 0, 0, 0}, nil); err == nil {
		t.Fatal("T=0 accepted")
	}
	s := newTestScheme(t, 1, 2)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Declare different params than the embedded key dimension.
	data[7] = 9 // T = 9 -> dim mismatch
	if _, err := LoadScheme(data, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
