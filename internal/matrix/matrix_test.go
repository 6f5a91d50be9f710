package matrix

import (
	"fmt"
	"testing"

	"repro/internal/zq"
)

// Mul returns the matrix product m * o, the reference the tests check
// Inverse, Det and MulVec against.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	p := New(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			for j := 0; j < o.Cols; j++ {
				p.Set(i, j, p.At(i, j).Add(a.Mul(o.At(k, j))))
			}
		}
	}
	return p
}

func randomSquare(t *testing.T, n int) *Matrix {
	t.Helper()
	m, err := RandomInvertible(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIdentityProperties(t *testing.T) {
	id := Identity(4)
	m := randomSquare(t, 4)
	if !m.Mul(id).Equal(m) || !id.Mul(m).Equal(m) {
		t.Fatal("identity is not neutral")
	}
	if !id.Det().Equal(zq.One()) {
		t.Fatal("det(I) != 1")
	}
}

func TestInverse(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		m := randomSquare(t, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if !m.Mul(inv).Equal(Identity(n)) {
			t.Fatalf("M * M^-1 != I for n=%d", n)
		}
		if !inv.Mul(m).Equal(Identity(n)) {
			t.Fatalf("M^-1 * M != I for n=%d", n)
		}
	}
}

func TestSingularRejected(t *testing.T) {
	m := New(3, 3)
	// Rank-1 matrix.
	for j := 0; j < 3; j++ {
		m.Set(0, j, zq.FromInt64(int64(j+1)))
		m.Set(1, j, zq.FromInt64(int64(2*(j+1))))
		m.Set(2, j, zq.FromInt64(int64(3*(j+1))))
	}
	if !m.Det().IsZero() {
		t.Fatal("rank-1 matrix has non-zero determinant")
	}
	if _, err := m.Inverse(); err == nil {
		t.Fatal("inverse of a singular matrix should fail")
	}
}

func TestDetMultiplicative(t *testing.T) {
	a := randomSquare(t, 4)
	b := randomSquare(t, 4)
	ab := a.Mul(b)
	if !ab.Det().Equal(a.Det().Mul(b.Det())) {
		t.Fatal("det(AB) != det(A)det(B)")
	}
}

func TestDetTranspose(t *testing.T) {
	a := randomSquare(t, 5)
	if !a.Det().Equal(a.Transpose().Det()) {
		t.Fatal("det(A) != det(A^T)")
	}
}

func TestDetKnown2x2(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, zq.FromInt64(3))
	m.Set(0, 1, zq.FromInt64(7))
	m.Set(1, 0, zq.FromInt64(2))
	m.Set(1, 1, zq.FromInt64(5))
	if !m.Det().Equal(zq.FromInt64(1)) { // 15 - 14
		t.Fatalf("det = %v, want 1", m.Det())
	}
}

// TestDualIdentity verifies the central IPE identity:
// B * (B*)^T = det(B) * I, which is what makes
// <vB, wB*> = det(B) <v, w>.
func TestDualIdentity(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		b := randomSquare(t, n)
		bStar, err := b.Dual()
		if err != nil {
			t.Fatal(err)
		}
		prod := b.Mul(bStar.Transpose())
		want := Identity(n).Scale(b.Det())
		if !prod.Equal(want) {
			t.Fatalf("B (B*)^T != det(B) I for n=%d", n)
		}
	}
}

// innerProduct returns <v, w> mod q. The vectors must have equal length.
func innerProduct(v, w zq.Vector) zq.Scalar {
	if len(v) != len(w) {
		panic(fmt.Sprintf("inner product of mismatched lengths %d and %d", len(v), len(w)))
	}
	acc := zq.Zero()
	for i := range v {
		acc = acc.Add(v[i].Mul(w[i]))
	}
	return acc
}

// TestInnerProduct pins the reference TestIPEInnerProductIdentity
// rests on.
func TestInnerProduct(t *testing.T) {
	v := zq.Vector{zq.FromInt64(1), zq.FromInt64(2), zq.FromInt64(3)}
	w := zq.Vector{zq.FromInt64(4), zq.FromInt64(5), zq.FromInt64(6)}
	if got := innerProduct(v, w); !got.Equal(zq.FromInt64(32)) {
		t.Fatalf("<v,w> = %v, want 32", got)
	}
	assertPanics(t, func() { innerProduct(v, w[:2]) })
}

// TestIPEInnerProductIdentity checks the scalar identity the whole
// scheme rests on: <vB, wB*> == det(B) <v, w>.
func TestIPEInnerProductIdentity(t *testing.T) {
	n := 7
	b := randomSquare(t, n)
	bStar, err := b.Dual()
	if err != nil {
		t.Fatal(err)
	}
	v := make(zq.Vector, n)
	w := make(zq.Vector, n)
	for i := range v {
		v[i] = zq.MustRandom()
		w[i] = zq.MustRandom()
	}
	lhs := innerProduct(b.MulVec(v), bStar.MulVec(w))
	rhs := b.Det().Mul(innerProduct(v, w))
	if !lhs.Equal(rhs) {
		t.Fatal("<vB, wB*> != det(B) <v, w>")
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	m := randomSquare(t, 4)
	v := zq.Vector{zq.FromInt64(1), zq.FromInt64(2), zq.FromInt64(3), zq.FromInt64(4)}
	rowVec := New(1, 4)
	for j := range v {
		rowVec.Set(0, j, v[j])
	}
	viaMul := rowVec.Mul(m)
	viaVec := m.MulVec(v)
	for j := 0; j < 4; j++ {
		if !viaMul.At(0, j).Equal(viaVec[j]) {
			t.Fatal("MulVec disagrees with matrix multiplication")
		}
	}
}

func TestDimensionPanics(t *testing.T) {
	m := New(2, 3)
	assertPanics(t, func() { m.Det() })
	assertPanics(t, func() { m.Mul(New(2, 2)) })
	assertPanics(t, func() { m.MulVec(zq.NewVector(5)) })
	assertPanics(t, func() { New(0, 1) })
}

func TestCloneIsDeep(t *testing.T) {
	m := randomSquare(t, 3)
	c := m.Clone()
	c.Set(0, 0, c.At(0, 0).Add(zq.One()))
	if m.Equal(c) {
		t.Fatal("clone aliases the original")
	}
}

func TestTranspose(t *testing.T) {
	m := New(2, 3)
	m.Set(0, 1, zq.FromInt64(5))
	m.Set(1, 2, zq.FromInt64(7))
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatal("transpose has wrong shape")
	}
	if !tr.At(1, 0).Equal(zq.FromInt64(5)) || !tr.At(2, 1).Equal(zq.FromInt64(7)) {
		t.Fatal("transpose moved entries incorrectly")
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("double transpose is not the identity")
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// randomVector returns n uniformly random scalars.
func randomVector(n int) zq.Vector {
	v := zq.NewVector(n)
	for i := range v {
		v[i] = zq.MustRandom()
	}
	return v
}

// TestMulVecAllocs pins MulVec, SJ.Enc's and TokenGen's vector product,
// at one allocation: its output.
func TestMulVecAllocs(t *testing.T) {
	m := randomSquare(t, 8)
	v := randomVector(8)
	var sink zq.Vector
	if n := testing.AllocsPerRun(100, func() { sink = m.MulVec(v) }); n != 1 {
		t.Errorf("MulVec allocates %v times per call, want 1", n)
	}
	_ = sink
}

// BenchmarkMulVec times one d = 8 row's w*B*, the vector product of
// SJ.Enc at the benchmark's M = 1, T = 4.
func BenchmarkMulVec(b *testing.B) {
	m, err := RandomInvertible(8, nil)
	if err != nil {
		b.Fatal(err)
	}
	v := randomVector(8)
	for b.Loop() {
		v = m.MulVec(v)
	}
}
