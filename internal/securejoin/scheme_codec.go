package securejoin

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ipe"
	"repro/internal/layout"
)

// Scheme (master key) serialization, so a client can persist its key
// material and keep querying tables uploaded in earlier sessions.

// MarshalBinary encodes the scheme parameters and master secret key.
// The output is secret: anyone holding it can decrypt-match every row.
func (s *Scheme) MarshalBinary() ([]byte, error) {
	mskBytes, err := s.msk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := binary.BigEndian.AppendUint32(make([]byte, 0, 8+len(mskBytes)), uint32(s.params.M))
	out = binary.BigEndian.AppendUint32(out, uint32(s.params.T))
	return append(out, mskBytes...), nil
}

// LoadScheme reconstructs a scheme from MarshalBinary output; every
// error wraps ErrBadEncoding. rng supplies randomness for subsequent
// operations (nil = crypto/rand).
func LoadScheme(data []byte, rng io.Reader) (*Scheme, error) {
	r := layout.NewReader(data, ErrBadEncoding)
	params := Params{M: int(r.Uint32()), T: int(r.Uint32())}
	mskBytes := r.Rest()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadEncoding, err)
	}
	msk := &ipe.MasterKey{}
	if err := msk.UnmarshalBinary(mskBytes); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadEncoding, err)
	}
	if msk.N != params.Dim() {
		return nil, fmt.Errorf("%w: master key dimension %d does not match params dimension %d",
			ErrBadEncoding, msk.N, params.Dim())
	}
	return &Scheme{params: params, msk: msk, rng: rng}, nil
}
