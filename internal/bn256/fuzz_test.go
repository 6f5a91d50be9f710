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
// encoding, in both groups. Its batch leg runs BaseMultG1s and
// BaseMultG2s on the scalars k + i mod 2^256 in batches across the G1
// group edge, 63, 64, 65 and 73 of them, with a zero scalar in the
// first and last slot of every group (checkGroupEdges), and each must
// encode as ScalarBaseMult's. The corpus under
// testdata/fuzz/FuzzScalarBaseMult seeds 0, 1, Order - 1, Order,
// 2^254 - 1 and 2^256 - 1.
func FuzzScalarBaseMult(f *testing.F) {
	f.Add([]byte{1})
	mod := new(big.Int).Lsh(big.NewInt(1), 256)
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
		kis := make([]*big.Int, BaseMultGroup+laneRows+1)
		for i := range kis {
			kis[i] = new(big.Int).Add(k, big.NewInt(int64(i)))
			kis[i].Mod(kis[i], mod)
		}
		checkGroupEdges(t, kis)
	})
}

// FuzzGFpArith reads 64 bytes as two big-endian raw operands, takes each
// mod 2p (the range Mul accepts, see addNR) and checks Mul against the
// big.Int Montgomery product ab*R^-1 mod p. When both operands are
// reduced it also checks Add, Sub and Double, which act on raw limbs as
// on integers mod p. Every result must come out fully reduced. Mul must
// also match mulGeneric limb for limb, so on a CPU that runs the
// assembly kernel the Go one is checked too. The corpus under
// testdata/fuzz/FuzzGFpArith seeds 0, 1, p - 1, p, 2p - 1 and all ones,
// each as both operands.
func FuzzGFpArith(f *testing.F) {
	one := big.NewInt(1)
	twoP := new(big.Int).Lsh(P, 1)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(one, 256), P)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 64 {
			return
		}
		a := new(big.Int).SetBytes(data[:32])
		b := new(big.Int).SetBytes(data[32:])
		a.Mod(a, twoP)
		b.Mod(b, twoP)
		ra, rb := rawGFp(a), rawGFp(b)
		check := func(op string, got gfP, want *big.Int) {
			t.Helper()
			if rawBig(&got).Cmp(want.Mod(want, P)) != 0 {
				t.Fatalf("%s(%v, %v) = %v, want %v", op, a, b, rawBig(&got), want)
			}
		}
		var e, g gfP
		e.Mul(&ra, &rb)
		check("Mul", e, new(big.Int).Mul(new(big.Int).Mul(a, b), rInv))
		if g.mulGeneric(&ra, &rb); g != e {
			t.Fatalf("mulGeneric(%v, %v) = %v, Mul gives %v", a, b, rawBig(&g), rawBig(&e))
		}
		if a.Cmp(P) >= 0 || b.Cmp(P) >= 0 {
			return
		}
		e.Add(&ra, &rb)
		check("Add", e, new(big.Int).Add(a, b))
		e.Sub(&ra, &rb)
		check("Sub", e, new(big.Int).Sub(a, b))
		e.Double(&ra)
		check("Double", e, new(big.Int).Lsh(a, 1))
	})
}

// FuzzTowerKernels reads arbitrary bytes as the operands of the
// assembly tower kernels, in 32-byte big-endian chunks, each taken mod
// p as the raw limbs of a reduced Fp coefficient (missing bytes are
// zero): two Fp12 elements and two line coefficients in Fp2, 28
// coefficients in all. Every kernel must match the Go code it stands in
// for, limb for limb, with the output apart and aliasing each input;
// the cyclotomic square runs on the operand as given and on its image
// under the easy part of the final exponentiation. The corpus under
// testdata/fuzz/FuzzTowerKernels seeds all-zero, every coefficient
// p - 1, every coefficient one, and random bytes. On a CPU without the
// assembly kernels it skips.
func FuzzTowerKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useADX {
			t.Skip("no assembly field kernels")
		}
		next := func() gfP {
			var chunk [32]byte
			n := copy(chunk[:], data)
			data = data[n:]
			return rawGFp(new(big.Int).Mod(new(big.Int).SetBytes(chunk[:]), P))
		}
		o := randTowerOperands(next)
		checkTowerKernels(t, o)
		o.a = *easyPart(t, &o.a)
		checkTowerKernels(t, o)
	})
}

// FuzzCombKernels reads arbitrary bytes as the operands of the comb's
// assembly kernels: five 32-byte big-endian chunks, each taken mod p as
// the raw limbs of a reduced coordinate, for P = (X1:Y1:Z1) and
// Q = (x2, y2), then a byte for the table row (mod 43) and one for the
// digit magnitude (mod 33); missing bytes are zero. The select must
// match the Go select in both groups, with both signs, and the G1
// addition must match addMixedG1 limb for limb, with the output apart
// and aliasing each input. Eight more bytes are the lane comb's digits,
// one per lane (magnitude the low six bits mod 33, sign the top bit),
// and one more byte the lanes' representatives (bit k high in lane k):
// lane k takes the five coordinates rotated by k places, and the lane
// select and lane addition must match selectEntry and addMixedG1 lane
// by lane after conversion (checkCombLanes). The G2 lane select and
// addition are held to the G2 scalar comb's the same way
// (checkG2CombLanes), on the same digits, with lane k's Fp2
// coordinates the pairs (c_j, c_j+3) of the rotated five. The corpus
// under testdata/fuzz/FuzzCombKernels seeds all-zero, every coordinate
// one, every coordinate p - 1, the generator G added to (0:1:0), to
// itself and to -G, random bytes (all with lane digits 0), lane digits
// 0, +-32 and mixed signs across lanes, and on the top window's row the
// digits of k = 0 (all 0) and +-32. On a CPU without BMI2 and ADX the
// addition part skips, and without AVX-512 IFMA the lane part.
func FuzzCombKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() gfP {
			var chunk [32]byte
			n := copy(chunk[:], data)
			data = data[n:]
			return rawGFp(new(big.Int).Mod(new(big.Int).SetBytes(chunk[:]), P))
		}
		cs := [5]gfP{next(), next(), next(), next(), next()}
		p := g1Proj{cs[0], cs[1], cs[2]}
		q := g1Affine{cs[3], cs[4]}
		var idx [2 + laneRows + 1]byte
		copy(idx[:], data)
		row := int(idx[0]) % combWindows
		checkCombSelect(t, row, uint64(idx[1])%(combEntries+1))
		if useIFMA {
			var ps [laneRows]g1Proj
			var qs [laneRows]g1Affine
			var high [laneRows]bool
			var mag, sign [laneRows]uint64
			for k := range laneRows {
				c := func(j int) gfP { return cs[(j+k)%len(cs)] }
				ps[k], qs[k] = g1Proj{c(0), c(1), c(2)}, g1Affine{c(3), c(4)}
				d := idx[2+k]
				mag[k], sign[k] = uint64(d&0x3f)%(combEntries+1), uint64(d>>7)
				high[k] = idx[2+laneRows]>>k&1 == 1
			}
			checkCombLanes(t, row, &mag, &sign, &ps, &qs, &high)
			var ps2 [laneRows]g2Proj
			var qs2 [laneRows]g2Affine
			for k := range laneRows {
				c := func(j int) gfP2 { return gfP2{cs[(j+k)%len(cs)], cs[(j+k+3)%len(cs)]} }
				ps2[k], qs2[k] = g2Proj{c(0), c(1), c(2)}, g2Affine{c(3), c(4)}
			}
			checkG2CombLanes(t, row, &mag, &sign, &ps2, &qs2, &high)
		}
		if !useADX {
			t.Skip("no assembly addition kernel")
		}
		checkAddMixed(t, p, q)
	})
}
