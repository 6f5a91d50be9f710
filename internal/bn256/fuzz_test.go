package bn256

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzG2Unmarshal feeds hostile bytes to the compressed G2 decoder, the
// codec every token element from a peer goes through. The corpus under
// testdata/fuzz/FuzzG2Unmarshal seeds it with bad flag bits, x >= p, x
// off the twist, off-subgroup points and the infinity encoding. A
// failure must be an error, never a panic, and an accepted encoding
// must be the one canonical encoding of a G2 point.
func FuzzG2Unmarshal(f *testing.F) {
	f.Add(new(G2).ScalarBaseMult(big.NewInt(1)).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q G2
		if err := q.Unmarshal(data); err != nil {
			return
		}
		if !q.p.inG2() {
			t.Fatal("accepted a point outside G2")
		}
		if !bytes.Equal(q.Marshal(), data) {
			t.Fatal("accepted a non-canonical encoding")
		}
	})
}

// FuzzScalarBaseMult reads arbitrary bytes as a big-endian scalar and
// checks the constant-time comb against the variable-time wNAF Mul, by
// encoding, in both groups. The corpus under
// testdata/fuzz/FuzzScalarBaseMult seeds 0, 1, Order - 1, Order,
// 2^254 - 1 and 2^256 - 1.
func FuzzScalarBaseMult(f *testing.F) {
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		k := new(big.Int).SetBytes(data)
		var g1 G1
		g1.p.Mul(&curveGen, k)
		if !bytes.Equal(new(G1).ScalarBaseMult(k).Marshal(), g1.Marshal()) {
			t.Fatalf("G1 comb differs from the wNAF for k = %v", k)
		}
		var g2 G2
		g2.p.Mul(&twistGen, k)
		if !bytes.Equal(new(G2).ScalarBaseMult(k).Marshal(), g2.Marshal()) {
			t.Fatalf("G2 comb differs from the wNAF for k = %v", k)
		}
	})
}
