package server

import (
	"io"
	"math/big"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bn256"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/ipe"
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

// dim5 are the parameters of the token tests' tables: rows and tokens
// of d = M(T+1)+3 = 5 elements.
var dim5 = securejoin.Params{M: 1, T: 1}

// bigToken is a well-formed token of 4,095 elements, the most the wire
// codec admits; every element is the G2 generator.
func bigToken() *securejoin.Token {
	g := new(bn256.G2).ScalarBaseMult(big.NewInt(1))
	elems := make([]*bn256.G2, 4095)
	for i := range elems {
		elems[i] = g
	}
	return &securejoin.Token{Tk: &ipe.Token{Elems: elems}}
}

// bigTokenRefusal is the error of a join whose token A is bigToken and
// whose table A is the d = 5 table L.
const bigTokenRefusal = `token A: 4095 elements, table "L" takes 5`

// tokenServer starts a server holding uploadPair's tables L and R (four
// rows of d = 5 each) and the empty tables E1 and E2, and returns it
// with a client of the tables' keys and the two encoded tokens of one
// query over them.
func tokenServer(t *testing.T) (srv *Server, c *client.Client, tokA, tokB []byte) {
	t.Helper()
	srv = New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if c, err = client.Dial(addr, dim5); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	uploadPair(t, c, 4)
	for _, name := range []string{"E1", "E2"} {
		if err := c.Upload(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	q, err := c.Keys().NewQuery(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tokA, _ = q.TokenA.MarshalBinary()
	tokB, _ = q.TokenB.MarshalBinary()
	return srv, c, tokA, tokB
}

// wireConn is a handshaken protocol connection to srv, for requests the
// client package never builds.
func wireConn(t *testing.T, srv *Server) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := wire.NewConn(nc)
	if err := wire.ClientHandshake(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// answer sends req and returns its terminal frame, counting the result
// rows of the batches before it.
func answer(t *testing.T, c *wire.Conn, req *wire.Request) (f *wire.Frame, rows int) {
	t.Helper()
	if err := c.Send(req); err != nil {
		t.Fatal(err)
	}
	for {
		f = new(wire.Frame)
		if err := c.Recv(f); err != nil {
			t.Fatal(err)
		}
		if f.Batch == nil {
			return f, rows
		}
		rows += len(f.Batch.Rows)
	}
}

// joinOf is a join request of tables a and b with the given tokens.
func joinOf(a, b string, tokA, tokB []byte) *wire.JoinRequest {
	return &wire.JoinRequest{TableA: a, TableB: b, TokenA: tokA, TokenB: tokB}
}

// submitAndWait submits jr as a job, waits for it to end, and returns
// its final status and the error frame of an attach to it ("" when the
// attach streamed a result).
func submitAndWait(t *testing.T, c *wire.Conn, jr *wire.JoinRequest) (*wire.JobInfo, string) {
	t.Helper()
	f, _ := answer(t, c, &wire.Request{ID: 1, Submit: &wire.SubmitRequest{Join: jr}})
	if f.Job == nil {
		t.Fatalf("submit answered %+v, want a JobInfo", f)
	}
	var info *wire.JobInfo
	waitFor(t, "the job to end", func() bool {
		f, _ := answer(t, c, &wire.Request{ID: 2, JobStatus: f.Job.ID})
		info = f.Job
		return info != nil && (info.State == wire.JobDone || info.State == wire.JobFailed)
	})
	f, _ = answer(t, c, &wire.Request{ID: 3, Attach: info.ID})
	return info, f.Err
}

// TestJoinSpecTokenErrors checks that a join request's two tokens,
// decoded at the same time, still report their errors as before: a bad
// token names its side, and when both are bad token A's error wins.
func TestJoinSpecTokenErrors(t *testing.T) {
	srv, _, goodA, goodB := tokenServer(t)
	c := wireConn(t, srv)
	join := func(tokA, tokB []byte) *wire.Frame {
		f, _ := answer(t, c, &wire.Request{ID: 1, Join: joinOf("L", "R", tokA, tokB)})
		return f
	}
	if f := join(goodA, goodB); f.Err != "" || f.Summary == nil {
		t.Fatalf("good tokens: %+v", f)
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
			err := join(c.tokA, c.tokB).Err
			if !strings.HasPrefix(err, c.want) {
				t.Errorf("%s token %s: error %q, want prefix %q", name, c.side, err, c.want)
			}
			if name == "off-subgroup" && !strings.Contains(err, "order-r subgroup") {
				t.Errorf("%s token %s: error %q does not name the subgroup", name, c.side, err)
			}
		}
	}
}

// TestTokenDimensionRefused: a well-formed 4,095-element token against
// a table of dimension 5 is refused with one error naming both numbers
// on every path join work takes — a sync join, a submitted job (its
// status and an attach to it) and a two-shard cluster join.
func TestTokenDimensionRefused(t *testing.T) {
	srv, c, _, tokB := tokenServer(t)
	big, err := bigToken().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wc := wireConn(t, srv)
	if f, _ := answer(t, wc, &wire.Request{ID: 1, Join: joinOf("L", "R", big, tokB)}); f.Err != bigTokenRefusal {
		t.Errorf("sync join: error %q, want %q", f.Err, bigTokenRefusal)
	}
	info, attachErr := submitAndWait(t, wc, joinOf("L", "R", big, tokB))
	if info.State != wire.JobFailed || info.Err != bigTokenRefusal {
		t.Errorf("submitted job: %s, error %q, want failed with %q", info.State, info.Err, bigTokenRefusal)
	}
	if !strings.HasSuffix(attachErr, bigTokenRefusal) {
		t.Errorf("attach: error %q, want it to end in %q", attachErr, bigTokenRefusal)
	}

	// The two-shard cluster sends the token to both shards.
	srv2 := New(nil)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	cl := dialCluster(t, c, srv.ln.Addr().String(), addr2)
	uploadPair(t, cl, 4)
	q, err := cl.Keys().NewQuery(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.TokenA = bigToken()
	s, err := cl.Runner().Open("L", "R", engine.JoinSpec{Query: q})
	for err == nil {
		_, err = s.Next()
	}
	if err == io.EOF || !strings.Contains(err.Error(), bigTokenRefusal) {
		t.Errorf("cluster join: error %v, want it to say %q", err, bigTokenRefusal)
	}
}

// TestSubmitBadTokenFailsJob: a submit is answered without decoding its
// tokens, so a right-size token with an element outside G2 is accepted
// and its job fails, with the text a sync join's refusal carries.
func TestSubmitBadTokenFailsJob(t *testing.T) {
	srv, _, tokA, tokB := tokenServer(t)
	info, attachErr := submitAndWait(t, wireConn(t, srv), joinOf("L", "R", offSubgroup(t, tokA), tokB))
	if info.State != wire.JobFailed || !strings.HasPrefix(info.Err, "token A: ") || !strings.Contains(info.Err, "order-r subgroup") {
		t.Fatalf("job with an off-subgroup token: %s, error %q", info.State, info.Err)
	}
	if !strings.HasSuffix(attachErr, info.Err) {
		t.Fatalf("attach: error %q, want it to end in %q", attachErr, info.Err)
	}
}

// TestEmptyTableTokens pins what an empty table's token must be: only
// as many elements as the other token, decoded never — so bytes that
// would fail the decode pass — while the other side's token is held to
// its table as usual. Two empty tables join to no rows and 0 pairs.
func TestEmptyTableTokens(t *testing.T) {
	srv, _, tokA, tokB := tokenServer(t)
	big, err := bigToken().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	undecodable := offSubgroup(t, tokA)
	c := wireConn(t, srv)
	for _, tc := range []struct {
		name    string
		jr      *wire.JoinRequest
		wantErr string
	}{
		{"two empty", joinOf("E1", "E2", undecodable, tokB), ""},
		{"two empty, big tokens", joinOf("E1", "E2", big, big), ""},
		{"two empty, counts differ", joinOf("E1", "E2", tokA, big), `token A: 5 elements, table "E1" takes 4095`},
		{"empty A", joinOf("E1", "R", undecodable, tokB), ""},
		{"empty A, big token A", joinOf("E1", "R", big, tokB), `token A: 4095 elements, table "E1" takes 5`},
		{"empty A, big tokens", joinOf("E1", "R", big, big), `token B: 4095 elements, table "R" takes 5`},
		{"empty B", joinOf("L", "E2", tokA, offSubgroup(t, tokB)), ""},
		{"self join", joinOf("E1", "E1", undecodable, undecodable), ""},
	} {
		f, rows := answer(t, c, &wire.Request{ID: 1, Join: tc.jr})
		switch {
		case f.Err != tc.wantErr:
			t.Errorf("%s: error %q, want %q", tc.name, f.Err, tc.wantErr)
		case tc.wantErr == "" && (f.Summary == nil || rows != 0 || f.Summary.RevealedPairs != 0):
			t.Errorf("%s: %d rows, summary %+v; want no rows and 0 pairs", tc.name, rows, f.Summary)
		}
	}
}

// TestBadDimensionCostsNoDecode: 32 pipelined sync joins, then 32
// pipelined submits, on one connection, each carrying two well-formed
// 4,095-element tokens against tables of dimension 5, are all refused
// by the dimension check before any element is decoded. Decoding and
// precomputing one such token allocates about 219 MiB; a set of 32
// requests allocates, in this process, its frames once on the sending
// side and once on the receiving side (about 32 MiB) and little more.
func TestBadDimensionCostsNoDecode(t *testing.T) {
	srv, _, _, _ := tokenServer(t)
	big, err := bigToken().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	c := wireConn(t, srv)
	jr := joinOf("L", "R", big, big)
	for _, submit := range []bool{false, true} {
		failedBefore := srv.met.JobsFailed.Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sent := make(chan error, 1)
		go func() {
			for i := uint64(1); i <= n; i++ {
				req := &wire.Request{ID: i, Join: jr}
				if submit {
					req = &wire.Request{ID: i, Submit: &wire.SubmitRequest{Join: jr}}
				}
				if err := c.Send(req); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		var jobs []string
		for i := 0; i < n; i++ {
			var f wire.Frame
			if err := c.Recv(&f); err != nil {
				t.Fatal(err)
			}
			switch {
			case submit && f.Job != nil:
				jobs = append(jobs, f.Job.ID)
			case submit:
				t.Fatalf("submit %d: answered %+v, want a JobInfo", f.ID, f)
			case f.Err != bigTokenRefusal:
				t.Fatalf("join %d: error %q, want %q", f.ID, f.Err, bigTokenRefusal)
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the jobs to fail", func() bool { return srv.met.JobsFailed.Value()-failedBefore == uint64(len(jobs)) })
		runtime.ReadMemStats(&after)
		for _, id := range jobs {
			if info := srv.lookupJob(id).snapshot(); info.Err != bigTokenRefusal {
				t.Errorf("job %s: error %q, want %q", id, info.Err, bigTokenRefusal)
			}
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("submit=%v: %d requests allocated %.1f MiB", submit, n, float64(alloc)/(1<<20))
		if alloc > 64<<20 {
			t.Errorf("submit=%v: %d refused requests allocated %.1f MiB, want under 64", submit, n, float64(alloc)/(1<<20))
		}
	}
}
