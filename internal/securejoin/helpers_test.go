package securejoin

import (
	"fmt"
	"testing"

	"repro/internal/zq"
)

// mustKey returns a fresh non-zero query key or fails the test.
func (s *Scheme) mustKey(t *testing.T) zq.Scalar {
	t.Helper()
	k, err := zq.RandomNonZero(s.rng)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// encryptTable runs SJ.Enc over rows one at a time on the scheme's rng.
func encryptTable(s *Scheme, rows []Row) ([]*RowCiphertext, error) {
	out := make([]*RowCiphertext, len(rows))
	for i, r := range rows {
		ct, err := s.Encrypt(r)
		if err != nil {
			return nil, fmt.Errorf("securejoin: encrypting row %d: %w", i, err)
		}
		out[i] = ct
	}
	return out, nil
}

// Match implements SJ.Match for a single pair of decrypted values; the
// join paths match whole tables by hashing (HashJoin).
func Match(da, db DValue) bool {
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}
