package securejoin

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bn256"
	"repro/internal/ipe"
	"repro/internal/layout"
)

// Wire encodings for tokens and row ciphertexts, used by the TCP
// client/server protocol and by anything that persists encrypted tables.
// Both are a 4-byte big-endian element count followed by 64-byte group
// elements: a row's G1 elements as affine x || y, a token's G2 elements
// compressed (x in Fp2 plus the sign of y; see bn256.G2.Marshal).

const elemSize = 64

// ErrBadEncoding is wrapped by every error Token.UnmarshalBinary,
// RowCiphertext.UnmarshalBinary and LoadScheme return for bytes that
// are not a well-formed encoding.
var ErrBadEncoding = errors.New("securejoin: malformed encoding")

// MarshalBinary encodes the token.
func (t *Token) MarshalBinary() ([]byte, error) {
	out := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(t.Tk.Elems)*elemSize), uint32(len(t.Tk.Elems)))
	for _, e := range t.Tk.Elems {
		out = e.AppendMarshal(out)
	}
	return out, nil
}

// TokenDim reads the element count of a token encoding and checks the
// encoding's length, decoding no element: a server compares the count
// with the row dimension of the token's table before it pays for
// UnmarshalBinary.
func TokenDim(data []byte) (int, error) {
	n, _, err := readElems("token", data)
	return n, err
}

// readElems reads an encoding's element count and the body holding
// exactly that many elements.
func readElems(what string, data []byte) (int, []byte, error) {
	r := layout.NewReader(data, ErrBadEncoding)
	n := r.Count32(what+" elements", elemSize)
	body := r.Next(n * elemSize)
	return n, body, r.Done()
}

// UnmarshalBinary decodes a token produced by MarshalBinary, validating
// every group element (G2 subgroup membership included, so a malicious
// encoder cannot smuggle points of small order) in one
// bn256.UnmarshalG2s call. An error names the lowest failing element.
func (t *Token) UnmarshalBinary(data []byte) error {
	n, body, err := readElems("token", data)
	if err != nil {
		return err
	}
	elems := make([]*bn256.G2, n)
	for i := range elems {
		elems[i] = new(bn256.G2)
	}
	if i, err := bn256.UnmarshalG2s(body, elems); err != nil {
		return fmt.Errorf("%w: token element %d: %w", ErrBadEncoding, i, err)
	}
	t.Tk = &ipe.Token{Elems: elems}
	return nil
}

// MarshalBinary encodes the row ciphertext.
func (ct *RowCiphertext) MarshalBinary() ([]byte, error) {
	out := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(ct.C.Elems)*elemSize), uint32(len(ct.C.Elems)))
	for _, e := range ct.C.Elems {
		out = e.AppendMarshal(out)
	}
	return out, nil
}

// UnmarshalBinary decodes a row ciphertext produced by MarshalBinary,
// validating every group element. G1 has cofactor 1, so the curve
// equation is the whole membership check.
func (ct *RowCiphertext) UnmarshalBinary(data []byte) error {
	n, body, err := readElems("ciphertext", data)
	if err != nil {
		return err
	}
	elems := make([]*bn256.G1, n)
	for i := range elems {
		elems[i] = new(bn256.G1)
		if err := elems[i].Unmarshal(body[i*elemSize : (i+1)*elemSize]); err != nil {
			return fmt.Errorf("%w: ciphertext element %d: %w", ErrBadEncoding, i, err)
		}
	}
	ct.C = &ipe.CiphertextM{Elems: elems}
	return nil
}
