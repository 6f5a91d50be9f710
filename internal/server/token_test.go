package server

import (
	"strings"
	"testing"

	"repro/internal/bn256"
	"repro/internal/securejoin"
	"repro/internal/wire"
)

// offSubgroup returns tok with its first G2 element replaced by a point
// that is on the twist but outside the order-r subgroup: x-coordinates
// are tried until the decoder gets past the curve equation and fails
// the membership test.
func offSubgroup(t *testing.T, tok []byte) []byte {
	t.Helper()
	out := append([]byte(nil), tok...)
	elem := out[4 : 4+64]
	for b := 0; b < 256; b++ {
		elem[63] = byte(b)
		err := new(bn256.G2).Unmarshal(elem)
		if err != nil && strings.Contains(err.Error(), "subgroup") {
			return out
		}
	}
	t.Fatal("no off-subgroup twist point among 256 x-coordinates")
	return nil
}

// TestJoinSpecTokenErrors checks that a join request's two tokens,
// decoded at the same time, still report their errors as before: a bad
// token names its side, and when both are bad token A's error wins.
func TestJoinSpecTokenErrors(t *testing.T) {
	s, err := securejoin.Setup(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	goodA, _ := q.TokenA.MarshalBinary()
	goodB, _ := q.TokenB.MarshalBinary()
	srv := New(nil)
	defer srv.Close()
	if _, err := srv.joinSpecFrom(&wire.JoinRequest{TokenA: goodA, TokenB: goodB}); err != nil {
		t.Fatalf("good tokens: %v", err)
	}
	bad := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-1] },
		"off-subgroup": func(b []byte) []byte { return offSubgroup(t, b) },
	}
	for name, corrupt := range bad {
		for _, c := range []struct {
			side       string
			tokA, tokB []byte
			want       string
		}{
			{"A", corrupt(goodA), goodB, "token A: "},
			{"B", goodA, corrupt(goodB), "token B: "},
			{"both", corrupt(goodA), corrupt(goodB), "token A: "},
		} {
			_, err := srv.joinSpecFrom(&wire.JoinRequest{TokenA: c.tokA, TokenB: c.tokB})
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("%s token %s: error %v, want prefix %q", name, c.side, err, c.want)
			}
			if name == "off-subgroup" && err != nil && !strings.Contains(err.Error(), "order-r subgroup") {
				t.Errorf("%s token %s: error %v does not name the subgroup", name, c.side, err)
			}
		}
	}
}
