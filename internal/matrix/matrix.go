// Package matrix implements dense linear algebra over Z_q as required by
// function-hiding inner-product encryption: sampling of uniformly random
// invertible matrices B from GL_n(Z_q), determinants, inverses and the
// derived matrix B* = det(B) * (B^-1)^T used by the IPE master secret key.
package matrix

import (
	"fmt"
	"io"

	"repro/internal/zq"
)

// Matrix is an n x m matrix over Z_q in row-major order.
type Matrix struct {
	Rows, Cols int
	data       []zq.Scalar
}

// New returns a zero matrix with the given dimensions.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("matrix: non-positive dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, data: make([]zq.Scalar, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, zq.One())
	}
	return m
}

// Random returns a matrix with entries sampled uniformly from Z_q.
func Random(rows, cols int, r io.Reader) (*Matrix, error) {
	m := New(rows, cols)
	for i := range m.data {
		s, err := zq.Random(r)
		if err != nil {
			return nil, err
		}
		m.data[i] = s
	}
	return m, nil
}

// RandomInvertible samples a uniformly random element of GL_n(Z_q) by
// rejection: a uniform matrix over a 254-bit prime field is singular
// with probability ~ n/q, so the loop essentially never repeats.
func RandomInvertible(n int, r io.Reader) (*Matrix, error) {
	for {
		m, err := Random(n, n, r)
		if err != nil {
			return nil, err
		}
		if det := m.Det(); !det.IsZero() {
			return m, nil
		}
	}
}

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) zq.Scalar {
	return m.data[i*m.Cols+j]
}

// Set assigns the entry at row i, column j.
func (m *Matrix) Set(i, j int, v zq.Scalar) {
	m.data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether m and o have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.data {
		if !m.data[i].Equal(o.data[i]) {
			return false
		}
	}
	return true
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Scale returns k * m.
func (m *Matrix) Scale(k zq.Scalar) *Matrix {
	s := New(m.Rows, m.Cols)
	for i := range m.data {
		s.data[i] = m.data[i].Mul(k)
	}
	return s
}

// MulVec returns the row-vector product v * m, the operation used to
// compute v*B and w*B* in the IPE scheme. v holds secrets (the row's
// gamma slots, the token's k and delta), so every entry takes the same
// multiplications whatever its value: there is no skip for zero.
func (m *Matrix) MulVec(v zq.Vector) zq.Vector {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("matrix: cannot multiply vector of length %d by %dx%d", len(v), m.Rows, m.Cols))
	}
	out := zq.NewVector(m.Cols)
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		for j := 0; j < m.Cols; j++ {
			out[j] = out[j].Add(vi.Mul(m.At(i, j)))
		}
	}
	return out
}

// Det returns the determinant of a square matrix via Gaussian
// elimination with partial pivoting over Z_q.
//
// Det and Inverse are the one place the secret master key B meets a
// branch on its value: the pivot search tests entries for zero. They run
// only at Setup and when a key file loads, and for B uniform in
// GL_n(Z_q) a diagonal entry met during elimination is zero with
// probability about 1/q, so for all but a negligible fraction of keys
// the search takes its first row every time. The field arithmetic they
// call is zq's and runs in fixed time.
func (m *Matrix) Det() zq.Scalar {
	if m.Rows != m.Cols {
		panic("matrix: determinant of non-square matrix")
	}
	n := m.Rows
	a := m.Clone()
	det := zq.One()
	for col := 0; col < n; col++ {
		pivot := -1
		for row := col; row < n; row++ {
			if !a.At(row, col).IsZero() {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return zq.Zero()
		}
		if pivot != col {
			a.swapRows(pivot, col)
			det = det.Neg()
		}
		p := a.At(col, col)
		det = det.Mul(p)
		pInv := p.Inv()
		for row := col + 1; row < n; row++ {
			f := a.At(row, col).Mul(pInv)
			for j := col; j < n; j++ {
				a.Set(row, j, a.At(row, j).Sub(f.Mul(a.At(col, j))))
			}
		}
	}
	return det
}

// Inverse returns m^-1 using Gauss-Jordan elimination. It returns an
// error if m is singular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("matrix: inverse of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		pivot := -1
		for row := col; row < n; row++ {
			if !a.At(row, col).IsZero() {
				pivot = row
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("matrix: singular matrix")
		}
		if pivot != col {
			a.swapRows(pivot, col)
			inv.swapRows(pivot, col)
		}
		pInv := a.At(col, col).Inv()
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j).Mul(pInv))
			inv.Set(col, j, inv.At(col, j).Mul(pInv))
		}
		for row := 0; row < n; row++ {
			if row == col {
				continue
			}
			f := a.At(row, col)
			for j := 0; j < n; j++ {
				a.Set(row, j, a.At(row, j).Sub(f.Mul(a.At(col, j))))
				inv.Set(row, j, inv.At(row, j).Sub(f.Mul(inv.At(col, j))))
			}
		}
	}
	return inv, nil
}

// Dual returns B* = det(B) * (B^-1)^T, the companion matrix the IPE
// master secret key pairs with B. It satisfies B * (B*)^T = det(B) * I.
func (m *Matrix) Dual() (*Matrix, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.Transpose().Scale(m.Det()), nil
}

func (m *Matrix) swapRows(i, j int) {
	ri := m.data[i*m.Cols : (i+1)*m.Cols]
	rj := m.data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
