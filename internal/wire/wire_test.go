package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
)

// pipeConn is an in-memory ReadWriter: writes go to out, reads come
// from in.
type pipeConn struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (p *pipeConn) Read(b []byte) (int, error)  { return p.in.Read(b) }
func (p *pipeConn) Write(b []byte) (int, error) { return p.out.Write(b) }

// loopback returns a Conn whose sends can be read back by a second
// Conn.
func loopback() (send, recv *Conn, transit *bytes.Buffer) {
	transit = &bytes.Buffer{}
	send = NewConn(&pipeConn{in: &bytes.Buffer{}, out: transit})
	recv = NewConn(&pipeConn{in: transit, out: &bytes.Buffer{}})
	return
}

func frameTrip[T any](t *testing.T, in T, out *T) {
	t.Helper()
	send, recv, _ := loopback()
	if err := send.Send(&in); err != nil {
		t.Fatal(err)
	}
	if err := recv.Recv(out); err != nil {
		t.Fatal(err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	in := Request{
		ID: 7,
		Upload: &UploadRequest{
			Table: "T",
			Rows: []UploadRow{
				{JoinCiphertext: []byte{1, 2, 3}, Payload: []byte{4, 5}},
			},
		},
	}
	var out Request
	frameTrip(t, in, &out)
	if out.ID != 7 || out.Upload == nil || out.Upload.Table != "T" || len(out.Upload.Rows) != 1 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	if !bytes.Equal(out.Upload.Rows[0].JoinCiphertext, []byte{1, 2, 3}) {
		t.Fatal("ciphertext bytes differ")
	}
}

func TestJoinRequestRoundTrip(t *testing.T) {
	in := Request{ID: 1, Join: &JoinRequest{
		TableA: "A", TableB: "B",
		TokenA: []byte{9}, TokenB: []byte{8},
	}}
	var out Request
	frameTrip(t, in, &out)
	if out.Join == nil || out.Join.TableA != "A" || out.Join.TokenB[0] != 8 {
		t.Fatalf("round trip lost data: %+v", out)
	}
}

func TestDescribeRoundTrip(t *testing.T) {
	in := Request{ID: 4, Describe: true}
	var out Request
	frameTrip(t, in, &out)
	if out.ID != 4 || !out.Describe {
		t.Fatalf("round trip lost data: %+v", out)
	}
	fin := Frame{ID: 4, Tables: &TableList{Tables: []TableInfo{
		{Name: "A", Rows: 3, Indexed: true},
		{Name: "B", Rows: 0, Indexed: false},
	}}}
	var fout Frame
	frameTrip(t, fin, &fout)
	if fout.Tables == nil || !fout.Terminal() {
		t.Fatalf("tables frame: %+v", fout)
	}
	got := fout.Tables.Tables
	if len(got) != 2 || got[0] != (TableInfo{Name: "A", Rows: 3, Indexed: true}) || got[1].Indexed {
		t.Fatalf("table list lost data: %+v", got)
	}
}

func TestBatchAndSummaryFrames(t *testing.T) {
	send, recv, _ := loopback()
	frames := []Frame{
		{ID: 3, Batch: &JoinBatch{Rows: []JoinedRow{
			{RowA: 1, RowB: 2, PayloadA: []byte("a"), PayloadB: []byte("b")},
		}}},
		{ID: 3, Summary: &JoinSummary{RevealedPairs: 5}},
	}
	for i := range frames {
		if err := send.Send(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	var batch Frame
	if err := recv.Recv(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.ID != 3 || batch.Batch == nil || batch.Terminal() {
		t.Fatalf("batch frame: %+v", batch)
	}
	if batch.Batch.Rows[0].RowB != 2 || !bytes.Equal(batch.Batch.Rows[0].PayloadA, []byte("a")) {
		t.Fatalf("batch rows lost data: %+v", batch.Batch.Rows)
	}
	var sum Frame
	if err := recv.Recv(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Summary == nil || sum.Summary.RevealedPairs != 5 || !sum.Terminal() {
		t.Fatalf("summary frame: %+v", sum)
	}
}

func TestErrorFrame(t *testing.T) {
	in := Frame{ID: 9, Err: "boom"}
	var out Frame
	frameTrip(t, in, &out)
	if out.ID != 9 || out.Err != "boom" || !out.Terminal() {
		t.Fatalf("round trip lost data: %+v", out)
	}
}

func TestTruncatedFrame(t *testing.T) {
	send, _, transit := loopback()
	if err := send.Send(&Frame{ID: 1, Ok: true}); err != nil {
		t.Fatal(err)
	}
	full := transit.Bytes()
	// Cut mid-payload and mid-header.
	for _, cut := range []int{len(full) - 3, 2} {
		trunc := NewConn(&pipeConn{in: bytes.NewBuffer(append([]byte{}, full[:cut]...)), out: &bytes.Buffer{}})
		var f Frame
		err := trunc.Recv(&f)
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("cut at %d: got %v, want ErrTruncatedFrame", cut, err)
		}
	}
}

func TestRecvCleanEOF(t *testing.T) {
	empty := NewConn(&pipeConn{in: &bytes.Buffer{}, out: &bytes.Buffer{}})
	var f Frame
	if err := empty.Recv(&f); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	raw := &bytes.Buffer{}
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB announced
	c := NewConn(&pipeConn{in: raw, out: &bytes.Buffer{}})
	var f Frame
	if err := c.Recv(&f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestHandshake(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	defer srvSide.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- ServerHandshake(NewConn(srvSide)) }()
	if err := ClientHandshake(NewConn(cliSide)); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	// A v1 client, a v2 client (tokens in G1, rows in G2: the encodings
	// before the group swap), a v3 client (result rows as a gob list), a
	// v4 client (gob frames) and a future client, each announcing its
	// version in a v5 Hello, are rejected with a descriptive ack, and the
	// server reports the mismatch.
	for _, v := range []uint32{1, 2, 3, 4, Version + 1} {
		cliSide, srvSide := net.Pipe()
		srvErr := make(chan error, 1)
		go func() { srvErr <- ServerHandshake(NewConn(srvSide)) }()

		cli := NewConn(cliSide)
		if err := cli.Send(&Hello{Version: v}); err != nil {
			t.Fatal(err)
		}
		var ack HelloAck
		if err := cli.Recv(&ack); err != nil {
			t.Fatal(err)
		}
		if ack.Err == "" || ack.Version != Version {
			t.Fatalf("v%d: ack = %+v, want rejection naming v%d", v, ack, Version)
		}
		if err := <-srvErr; !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("v%d: server handshake: got %v, want ErrVersionMismatch", v, err)
		}
		cliSide.Close()
		srvSide.Close()
	}

	// This client against a v2 server, which rejects it the same way.
	cliSide, srvSide := net.Pipe()
	defer cliSide.Close()
	defer srvSide.Close()
	go func() {
		srv := NewConn(srvSide)
		var hello Hello
		if srv.Recv(&hello) == nil {
			srv.Send(&HelloAck{Version: 2, Err: fmt.Sprintf("unsupported protocol version %d (server speaks 2)", Version)})
		}
	}()
	if err := ClientHandshake(NewConn(cliSide)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("client against a v2 server: got %v, want ErrVersionMismatch", err)
	}

	// A v4 peer's gob frames, recorded from a v4 build: its Hello and its
	// HelloAck. Each is a version mismatch, not a codec error, and the
	// server still answers with a rejecting ack.
	hello, err := os.ReadFile("testdata/v4-hello.frame")
	if err != nil {
		t.Fatal(err)
	}
	toServer := &pipeConn{in: bytes.NewBuffer(hello), out: &bytes.Buffer{}}
	if err := ServerHandshake(NewConn(toServer)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("recorded v4 Hello: got %v, want ErrVersionMismatch", err)
	}
	var ack HelloAck
	if err := NewConn(&pipeConn{in: toServer.out, out: &bytes.Buffer{}}).Recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" || ack.Version != Version {
		t.Fatalf("recorded v4 Hello: ack = %+v, want rejection naming v%d", ack, Version)
	}
	ackFrame, err := os.ReadFile("testdata/v4-helloack.frame")
	if err != nil {
		t.Fatal(err)
	}
	toClient := &pipeConn{in: bytes.NewBuffer(ackFrame), out: &bytes.Buffer{}}
	if err := ClientHandshake(NewConn(toClient)); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("recorded v4 HelloAck: got %v, want ErrVersionMismatch", err)
	}
}
