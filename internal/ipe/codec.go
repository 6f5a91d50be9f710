package ipe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/zq"
)

// Master-key serialization. Only B is stored (32 bytes per entry, each
// reduced mod q, preceded by the dimension as a big-endian uint32); B*
// is recomputed on load, so a key file cannot hold an inconsistent
// (B, B*) pair.

// maxKeyDim bounds the dimension a master key encoding may declare.
const maxKeyDim = 1 << 12

// ErrBadKey is wrapped by every error MasterKey.UnmarshalBinary returns.
var ErrBadKey = errors.New("ipe: malformed master key")

// MarshalBinary encodes the master secret key.
func (msk *MasterKey) MarshalBinary() ([]byte, error) {
	out := binary.BigEndian.AppendUint32(make([]byte, 0, 4+msk.N*msk.N*32), uint32(msk.N))
	for i := 0; i < msk.N; i++ {
		for j := 0; j < msk.N; j++ {
			out = append(out, msk.B.At(i, j).Bytes()...)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a master key produced by MarshalBinary,
// recomputing the dual matrix. It checks the body length before it
// allocates the matrix, and rejects an entry not reduced mod q (so an
// accepted key re-encodes to the same bytes) and a singular B.
func (msk *MasterKey) UnmarshalBinary(data []byte) error {
	r := layout.NewReader(data, ErrBadKey)
	d := r.Uint32()
	if d == 0 || d > maxKeyDim {
		r.Fail("implausible dimension %d", d)
		d = 0
	}
	n := int(d)
	body := r.Next(n * n * 32)
	if err := r.Done(); err != nil {
		return err
	}
	b := matrix.New(n, n)
	var entry [32]byte
	for k := range n * n {
		p := body[k*32 : (k+1)*32]
		s := zq.FromBytes(p)
		s.Put(&entry)
		if !bytes.Equal(entry[:], p) {
			return fmt.Errorf("%w: entry (%d, %d) is not reduced mod q", ErrBadKey, k/n, k%n)
		}
		b.Set(k/n, k%n, s)
	}
	if b.Det().IsZero() {
		return fmt.Errorf("%w: singular matrix", ErrBadKey)
	}
	bStar, err := b.Dual()
	if err != nil {
		return err
	}
	msk.N = n
	msk.B = b
	msk.BStar = bStar
	return nil
}
