package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/wire"
)

// uploadPair uploads two joinable test tables with n rows each.
func uploadPair(t *testing.T, c uploader, n int) {
	t.Helper()
	mk := func(prefix string) []engine.PlainRow {
		rows := make([]engine.PlainRow, n)
		for i := range rows {
			rows[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte("x")},
				Payload:   []byte(fmt.Sprintf("%s-%d", prefix, i)),
			}
		}
		return rows
	}
	if err := c.Upload("L", mk("left")); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload("R", mk("right")); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJoinsOneClient issues joins from many goroutines over a
// single connection; responses are demultiplexed by request ID. Run
// with -race this also exercises the server's parallel execution paths.
func TestConcurrentJoinsOneClient(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	uploadPair(t, c, 4)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, revealed, err := c.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
			if err != nil {
				errs <- err
				return
			}
			if len(results) != 4 {
				errs <- fmt.Errorf("got %d results, want 4", len(results))
				return
			}
			if revealed == 0 {
				errs <- errors.New("revealed pairs = 0")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestJoinStreamsInBatches forces a tiny batch size and verifies the
// result arrives split across multiple frames with the correct total.
func TestJoinStreamsInBatches(t *testing.T) {
	srv := New(nil)
	srv.batch = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := dial(t, addr)
	uploadPair(t, c, 7)

	stream := openJoin(t, dialCluster(t, c, addr), "L", "R")
	batches, rows := 0, 0
	for {
		batch, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > 2 {
			t.Fatalf("batch of %d rows exceeds configured size 2", len(batch))
		}
		batches++
		rows += len(batch)
	}
	if rows != 7 {
		t.Fatalf("streamed %d rows, want 7", rows)
	}
	if batches < 4 {
		t.Fatalf("result arrived in %d batches, want >= 4", batches)
	}
	if stream.RevealedPairs() != 7 {
		t.Fatalf("revealed pairs = %d, want 7", stream.RevealedPairs())
	}
}

// TestSequentialDrainOfConcurrentStreams opens two streamed joins at
// once and drains them one after the other from a single goroutine.
// With batch size 1 each stream spans many frames, so this would
// deadlock if a lagging stream could head-of-line block the client's
// demultiplexer.
func TestSequentialDrainOfConcurrentStreams(t *testing.T) {
	srv := New(nil)
	srv.batch = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	uploadPair(t, c, 12)

	cl := dialCluster(t, c, addr)
	a := openJoin(t, cl, "L", "R")
	b := openJoin(t, cl, "L", "R")
	drain := func(s sql.StepStream) int {
		t.Helper()
		n := 0
		for {
			batch, err := s.Next()
			if err == io.EOF {
				return n
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(batch)
		}
	}
	if got := drain(a); got != 12 {
		t.Fatalf("stream A drained %d rows, want 12", got)
	}
	if got := drain(b); got != 12 {
		t.Fatalf("stream B drained %d rows, want 12", got)
	}
}

// TestSkewedJoinRespectsBatchBound: with duplicate join keys the
// engine's probe-side batch multiplies into many joined rows; the
// server must still re-split frames to the configured row bound.
func TestSkewedJoinRespectsBatchBound(t *testing.T) {
	srv := New(nil)
	srv.batch = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)

	same := func(prefix string, n int) []engine.PlainRow {
		rows := make([]engine.PlainRow, n)
		for i := range rows {
			rows[i] = engine.PlainRow{
				JoinValue: []byte("k"), // every row shares one join key
				Attrs:     [][]byte{[]byte("x")},
				Payload:   []byte(fmt.Sprintf("%s-%d", prefix, i)),
			}
		}
		return rows
	}
	if err := c.Upload("L", same("left", 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload("R", same("right", 4)); err != nil {
		t.Fatal(err)
	}
	stream := openJoin(t, dialCluster(t, c, addr), "L", "R")
	rows := 0
	for {
		batch, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > 2 {
			t.Fatalf("skewed join frame carries %d rows despite batch size 2", len(batch))
		}
		rows += len(batch)
	}
	if rows != 12 { // full cross product of the shared key
		t.Fatalf("skewed join returned %d rows, want 12", rows)
	}
}

// TestAbandonedStreamDoesNotStallConnection closes a join stream before
// draining it; subsequent requests on the same connection must still
// complete.
func TestAbandonedStreamDoesNotStallConnection(t *testing.T) {
	srv := New(nil)
	srv.batch = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := dial(t, addr)
	uploadPair(t, c, 6)

	cl := dialCluster(t, c, addr)
	stream := openJoin(t, cl, "L", "R")
	if _, err := stream.Next(); err != nil {
		t.Fatal(err)
	}
	stream.Close()

	if _, err := cl.DescribeTables(); err != nil {
		t.Fatalf("describe after abandoned stream: %v", err)
	}
	stream = openJoin(t, cl, "L", "R")
	rows := 0
	for {
		batch, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += len(batch)
	}
	if rows != 6 {
		t.Fatalf("join after abandoned stream: %d rows, want 6", rows)
	}
	// Both queries — the abandoned one included — reach the ledger. The
	// abandoned join records its trace when its worker sees the Cancel,
	// which may be after the second join, on another worker, finished.
	waitFor(t, "both traces in the ledger", func() bool {
		queries, _ := srv.Engine().ObservedLeakage()
		return queries == 2
	})
}

// TestChunkedUploadLargePayloads uploads a table whose sealed payloads
// exceed the per-frame byte budget, forcing the client to split it into
// a replace-then-append request sequence; the join must still see every
// row with intact payloads (and its response re-splits by bytes too).
func TestChunkedUploadLargePayloads(t *testing.T) {
	if testing.Short() {
		t.Skip("moves ~40 MiB through loopback")
	}
	addr := startServer(t)
	c := dial(t, addr)

	const big = 7 << 20 // 3 rows x 7 MiB > wire.FrameByteBudget (16 MiB)
	mk := func(tag byte, payloadSize int) []engine.PlainRow {
		rows := make([]engine.PlainRow, 3)
		for i := range rows {
			p := make([]byte, payloadSize)
			for j := range p {
				p[j] = tag + byte(i)
			}
			rows[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte("x")},
				Payload:   p,
			}
		}
		return rows
	}
	if err := c.Upload("Big", mk('A', big)); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload("Small", mk('a', 8)); err != nil {
		t.Fatal(err)
	}
	results, _, err := c.JoinWith("Big", "Small", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("join over chunk-uploaded table: %d rows, want 3", len(results))
	}
	for _, r := range results {
		if len(r.PayloadA) != big {
			t.Fatalf("payload A truncated: %d bytes", len(r.PayloadA))
		}
		want := byte('A' + r.RowA)
		if r.PayloadA[0] != want || r.PayloadA[big-1] != want {
			t.Fatalf("payload A of row %d corrupted", r.RowA)
		}
	}
}

// TestUncommittedUploadInvisible drives the upload staging protocol
// raw: chunks without Commit must not install a table, and the Commit
// chunk installs everything staged atomically.
func TestUncommittedUploadInvisible(t *testing.T) {
	addr := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	if err := wire.ClientHandshake(wc); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(req *wire.Request) *wire.Frame {
		t.Helper()
		if err := wc.Send(req); err != nil {
			t.Fatal(err)
		}
		var f wire.Frame
		if err := wc.Recv(&f); err != nil {
			t.Fatal(err)
		}
		if f.ID != req.ID || f.Err != "" || !f.Ok {
			t.Fatalf("upload chunk response: %+v", f)
		}
		return &f
	}
	// First chunk of a sequence, no commit: staged only.
	roundTrip(&wire.Request{ID: 1, Upload: &wire.UploadRequest{Table: "Staged"}})
	if _, err := startServerEngineTable(t, addr, "Staged"); err == nil {
		t.Fatal("uncommitted upload already visible to joins")
	}
	// Commit chunk: the table (empty here) becomes visible atomically.
	roundTrip(&wire.Request{ID: 2, Upload: &wire.UploadRequest{Table: "Staged", Append: true, Commit: true}})
	if _, err := startServerEngineTable(t, addr, "Staged"); err != nil {
		t.Fatalf("committed upload not visible: %v", err)
	}
}

// startServerEngineTable probes table visibility through the public
// surface: a join referencing the table fails with "unknown table"
// until the table is installed.
func startServerEngineTable(t *testing.T, addr, table string) ([]client.JoinResult, error) {
	t.Helper()
	c := dial(t, addr)
	results, _, err := c.JoinWith(table, table, securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
	return results, err
}

// TestOldProtocolClientRejected dials raw and speaks v1: the server
// must answer with a descriptive rejection instead of hanging.
func TestOldProtocolClientRejected(t *testing.T) {
	addr := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	if err := wc.Send(&wire.Hello{Version: 1}); err != nil {
		t.Fatal(err)
	}
	var ack wire.HelloAck
	if err := wc.Recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" || ack.Version != wire.Version {
		t.Fatalf("ack = %+v, want rejection advertising v%d", ack, wire.Version)
	}
}

// flakyListener fails its first few Accepts with a transient error.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.failures > 0 {
		l.failures--
		l.mu.Unlock()
		return nil, &net.OpError{Op: "accept", Err: errors.New("transient failure")}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientErrors: a few failing Accepts must not
// kill the accept loop — the next client still connects.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(nil)
	srv.Serve(&flakyListener{Listener: ln, failures: 3})
	t.Cleanup(func() { srv.Close() })

	c := dial(t, ln.Addr().String())
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after transient accept errors: %v", err)
	}
}

// TestCloseWaitsForInFlightRequests verifies Close lets a request the
// server is already executing finish: after the first streamed batch
// arrives (so the join is demonstrably in flight), Close must not cut
// off the remaining batches or the summary.
func TestCloseWaitsForInFlightRequests(t *testing.T) {
	srv := New(nil)
	srv.batch = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	uploadPair(t, c, 4)

	stream := openJoin(t, dialCluster(t, c, addr), "L", "R")
	first, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	rows := len(first)
	for {
		batch, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("in-flight join failed across Close: %v", err)
		}
		rows += len(batch)
	}
	if rows != 4 {
		t.Fatalf("in-flight join returned %d rows, want 4", rows)
	}
	if stream.RevealedPairs() != 4 {
		t.Fatalf("revealed pairs = %d, want 4", stream.RevealedPairs())
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
