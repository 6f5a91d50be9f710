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
