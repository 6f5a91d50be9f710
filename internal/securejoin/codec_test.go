package securejoin

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bn256"
	"repro/internal/ipe"
)

func TestTokenCodecRoundTrip(t *testing.T) {
	s := newTestScheme(t, 1, 2)
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("v")}}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := q.TokenA.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var tk Token
	if err := tk.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	data2, err := tk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("token round trip not stable")
	}

	// The decoded token must behave identically.
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Decrypt(q.TokenA, ct)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decrypt(&tk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(d1, d2) {
		t.Fatal("decoded token produces different D values")
	}
}

func TestCiphertextCodecRoundTrip(t *testing.T) {
	s := newTestScheme(t, 1, 2)
	ct, err := s.Encrypt(Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var ct2 RowCiphertext
	if err := ct2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("v")}}, Selection{})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Decrypt(q.TokenA, ct)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decrypt(q.TokenA, &ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(d1, d2) {
		t.Fatal("decoded ciphertext produces different D values")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	var tk Token
	if err := tk.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil token encoding accepted")
	}
	if err := tk.UnmarshalBinary([]byte{0, 0, 0, 2, 1, 2, 3}); err == nil {
		t.Fatal("truncated token encoding accepted")
	}
	var ct RowCiphertext
	if err := ct.UnmarshalBinary([]byte{0, 0}); err == nil {
		t.Fatal("short ciphertext encoding accepted")
	}
	// Correct length but invalid group elements.
	junk := make([]byte, 4+64)
	junk[3] = 1
	for i := 4; i < len(junk); i++ {
		junk[i] = 0xff
	}
	if err := ct.UnmarshalBinary(junk); err == nil {
		t.Fatal("non-curve ciphertext element accepted")
	}
}

// FuzzTokenUnmarshal feeds hostile bytes to the token codec, the first
// thing the server does with a join request. The corpus under
// testdata/fuzz/FuzzTokenUnmarshal seeds it with a valid token, count
// and length mismatches, elements with bad flag bits, x >= p, x off the
// twist and the infinity encoding, eight-element tokens with an
// element outside G2 at each position 0-7 (one lane position each of
// the batch subgroup check), and eight-element tokens for the batch
// square roots: valid elements whose roots gfP2.Sqrt finds at its first
// attempt and at its retry side by side, one element whose x^3 + b has
// a1 = 0 (a lane that falls back to the scalar Sqrt), and one x off
// the twist. A failure must be an error wrapping
// ErrBadEncoding, never a panic, and must be the error, element index
// included, of decoding the elements one at a time with
// (*bn256.G2).Unmarshal; so an accepted token's elements each pass that
// decode singly. An accepted token must re-encode to the same bytes.
func FuzzTokenUnmarshal(f *testing.F) {
	s := newTestScheme(f, 1, 1)
	q, err := s.NewQuery(Selection{}, Selection{})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := q.TokenA.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		var tk Token
		err := tk.UnmarshalBinary(data)
		if want := tokenErrorElementwise(data); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("UnmarshalBinary says %v; element by element: %v", err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("rejection %v does not wrap ErrBadEncoding", err)
			}
			return
		}
		again, err := tk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted a non-canonical token encoding")
		}
	})
}

// tokenErrorElementwise is the error Token.UnmarshalBinary returns for
// data, reached the element-wise way: the count check, then each element
// through (*bn256.G2).Unmarshal in order, the first failure named.
func tokenErrorElementwise(data []byte) error {
	n, body, err := readElems("token", data)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var e bn256.G2
		if err := e.Unmarshal(body[i*elemSize : (i+1)*elemSize]); err != nil {
			return fmt.Errorf("%w: token element %d: %w", ErrBadEncoding, i, err)
		}
	}
	return nil
}

// FuzzRowCiphertextUnmarshal feeds hostile bytes to the row ciphertext
// codec, which a peer reaches through every upload row. The corpus
// under testdata/fuzz/FuzzRowCiphertextUnmarshal seeds truncations,
// huge and mismatched counts (a row of 128-byte elements among them),
// elements off the curve, with x = p or at infinity, a trailing byte,
// an empty row and a valid row. A failure must be an error wrapping
// ErrBadEncoding, never a panic; an accepted row must re-encode to the
// same bytes.
func FuzzRowCiphertextUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ct RowCiphertext
		if err := ct.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("rejection %v does not wrap ErrBadEncoding", err)
			}
			return
		}
		again, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted a non-canonical row ciphertext encoding")
		}
	})
}

// TestTamperedCiphertextDoesNotMatch injects a fault: flipping any
// group element of a row ciphertext must break the match (failure
// injection for the integrity of the match semantics).
func TestTamperedCiphertextDoesNotMatch(t *testing.T) {
	s := newTestScheme(t, 1, 1)
	row := Row{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("v")}}
	ct, err := s.Encrypt(row)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Encrypt(row)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(Selection{0: [][]byte{[]byte("v")}}, Selection{0: [][]byte{[]byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	dRef, err := Decrypt(q.TokenB, ref)
	if err != nil {
		t.Fatal(err)
	}
	dOrig, err := Decrypt(q.TokenA, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !Match(dOrig, dRef) {
		t.Fatal("sanity: untampered rows should match")
	}

	// Tamper: swap two ciphertext elements — each remains a valid group
	// element, but the encoded vector changes.
	swapped := append([]*bn256.G1{}, ct.C.Elems...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	tampered := &RowCiphertext{C: &ipe.CiphertextM{Elems: swapped}}

	dTampered, err := Decrypt(q.TokenA, tampered)
	if err != nil {
		t.Fatal(err)
	}
	if Match(dTampered, dRef) {
		t.Fatal("tampered ciphertext still matches")
	}
}
