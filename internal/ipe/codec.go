package ipe

import (
	"encoding/binary"
	"fmt"

	"repro/internal/matrix"
	"repro/internal/zq"
)

// Master-key serialization. Only B is stored (32 bytes per entry,
// preceded by the dimension); B* is recomputed on load, so a key file
// cannot hold an inconsistent (B, B*) pair.

// MarshalBinary encodes the master secret key.
func (msk *MasterKey) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4, 4+msk.N*msk.N*32)
	binary.BigEndian.PutUint32(out, uint32(msk.N))
	for i := 0; i < msk.N; i++ {
		for j := 0; j < msk.N; j++ {
			out = append(out, msk.B.At(i, j).Bytes()...)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a master key produced by MarshalBinary,
// recomputing the dual matrix and rejecting singular B.
func (msk *MasterKey) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("ipe: master key encoding too short")
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n <= 0 || n > 1<<12 {
		return fmt.Errorf("ipe: implausible master key dimension %d", n)
	}
	if len(data) != n*n*32 {
		return fmt.Errorf("ipe: master key encoding has %d body bytes, want %d", len(data), n*n*32)
	}
	b := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			off := (i*n + j) * 32
			b.Set(i, j, zq.FromBytes(data[off:off+32]))
		}
	}
	if b.Det().IsZero() {
		return fmt.Errorf("ipe: master key matrix is singular")
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
