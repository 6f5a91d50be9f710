package securejoin

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bn256"
	"repro/internal/ipe"
)

// Wire encodings for tokens and row ciphertexts, used by the TCP
// client/server protocol and by anything that persists encrypted tables.
// Both are a 4-byte big-endian element count followed by 64-byte group
// elements: a row's G1 elements as affine x || y, a token's G2 elements
// compressed (x in Fp2 plus the sign of y; see bn256.G2.Marshal).

const elemSize = 64

// ErrBadEncoding is wrapped by every error Token.UnmarshalBinary and
// RowCiphertext.UnmarshalBinary return: the bytes are not a well-formed
// encoding.
var ErrBadEncoding = errors.New("securejoin: malformed encoding")

// MarshalBinary encodes the token.
func (t *Token) MarshalBinary() ([]byte, error) {
	n := len(t.Tk.Elems)
	out := make([]byte, 4, 4+n*elemSize)
	binary.BigEndian.PutUint32(out, uint32(n))
	for _, e := range t.Tk.Elems {
		out = append(out, e.Marshal()...)
	}
	return out, nil
}

// TokenDim reads the element count of a token encoding and checks the
// encoding's length, decoding no element: a server compares the count
// with the row dimension of the token's table before it pays for
// UnmarshalBinary.
func TokenDim(data []byte) (int, error) { return elemCount("token", data) }

// UnmarshalBinary decodes a token produced by MarshalBinary, validating
// every group element (G2 subgroup membership included, so a malicious
// encoder cannot smuggle points of small order) in one
// bn256.UnmarshalG2s call. An error names the lowest failing element.
func (t *Token) UnmarshalBinary(data []byte) error {
	n, err := elemCount("token", data)
	if err != nil {
		return err
	}
	elems := make([]*bn256.G2, n)
	for i := range elems {
		elems[i] = new(bn256.G2)
	}
	if i, err := bn256.UnmarshalG2s(data[4:], elems); err != nil {
		return fmt.Errorf("%w: token element %d: %w", ErrBadEncoding, i, err)
	}
	t.Tk = &ipe.Token{Elems: elems}
	return nil
}

// MarshalBinary encodes the row ciphertext.
func (ct *RowCiphertext) MarshalBinary() ([]byte, error) {
	n := len(ct.C.Elems)
	out := make([]byte, 4, 4+n*elemSize)
	binary.BigEndian.PutUint32(out, uint32(n))
	for _, e := range ct.C.Elems {
		out = append(out, e.Marshal()...)
	}
	return out, nil
}

// UnmarshalBinary decodes a row ciphertext produced by MarshalBinary,
// validating every group element. G1 has cofactor 1, so the curve
// equation is the whole membership check.
func (ct *RowCiphertext) UnmarshalBinary(data []byte) error {
	n, err := elemCount("ciphertext", data)
	if err != nil {
		return err
	}
	elems := make([]*bn256.G1, n)
	for i := range elems {
		elems[i] = new(bn256.G1)
		if err := elems[i].Unmarshal(data[4+i*elemSize : 4+(i+1)*elemSize]); err != nil {
			return fmt.Errorf("%w: ciphertext element %d: %w", ErrBadEncoding, i, err)
		}
	}
	ct.C = &ipe.CiphertextM{Elems: elems}
	return nil
}

// elemCount reads the element count of an encoding and checks that the
// body holds exactly that many elements.
func elemCount(what string, data []byte) (int, error) {
	if len(data) < 4 {
		return 0, fmt.Errorf("%w: %s encoding too short", ErrBadEncoding, what)
	}
	n := int(binary.BigEndian.Uint32(data))
	if len(data)-4 != n*elemSize {
		return 0, fmt.Errorf("%w: %s encoding has %d trailing bytes, want %d", ErrBadEncoding, what, len(data)-4, n*elemSize)
	}
	return n, nil
}
