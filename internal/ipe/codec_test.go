package ipe

import (
	"testing"
)

func TestMasterKeyCodecRoundTrip(t *testing.T) {
	msk, err := Setup(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := msk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored MasterKey
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.N != msk.N {
		t.Fatalf("dimension %d, want %d", restored.N, msk.N)
	}
	if !restored.B.Equal(msk.B) {
		t.Fatal("B differs after round trip")
	}
	if !restored.BStar.Equal(msk.BStar) {
		t.Fatal("recomputed B* differs")
	}

	// Interoperability: a token from the original key must decrypt a
	// ciphertext from the restored key to the same D value as the
	// original pair.
	v := vec(1, 2, 3, 4)
	w := vec(4, 3, 2, 1)
	tk, err := msk.KeyGenModified(v)
	if err != nil {
		t.Fatal(err)
	}
	ctOrig, err := msk.EncryptModified(w)
	if err != nil {
		t.Fatal(err)
	}
	ctRestored, err := restored.EncryptModified(w)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := DecryptModified(tk, ctOrig)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecryptModified(tk, ctRestored)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Fatal("restored key is not interoperable")
	}
}

func TestMasterKeyCodecRejectsMalformed(t *testing.T) {
	var msk MasterKey
	if err := msk.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil encoding accepted")
	}
	if err := msk.UnmarshalBinary([]byte{0, 0, 0, 2, 1, 2, 3}); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	// n = 0.
	if err := msk.UnmarshalBinary([]byte{0, 0, 0, 0}); err == nil {
		t.Fatal("zero dimension accepted")
	}
	// A singular matrix (all zeros) of dimension 2.
	data := make([]byte, 4+2*2*32)
	data[3] = 2
	if err := msk.UnmarshalBinary(data); err == nil {
		t.Fatal("singular matrix accepted")
	}
}
