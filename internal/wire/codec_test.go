package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fill sets every exported field reachable from v to a non-zero value,
// distinct per field: pointers get a fresh sub-message, slices two
// elements. A field of a kind it does not know fails the test, so a
// new field type cannot slip past the round trip below.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte{byte(*n), 0xff, byte(*n >> 8)})
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1000)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n) * 1000)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("fill: no value for a %s field", v.Type())
	}
}

// TestEveryFieldRoundTrips sends each message with every field, of every
// sub-message too, set, and requires all of it back: a field added to a
// struct but not to the codec fails here.
func TestEveryFieldRoundTrips(t *testing.T) {
	for _, msg := range []any{&Hello{}, &HelloAck{}, &Request{}, &Frame{}} {
		n := 0
		fill(t, reflect.ValueOf(msg).Elem(), &n)
		send, recv, _ := loopback()
		if err := send.Send(msg); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		got := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
		if err := recv.Recv(got); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
	// A negative int takes the ten-byte two's-complement uvarint.
	in := Request{ID: 1, Join: &JoinRequest{Workers: -1, CandidatesA: []int{-5, 3}}}
	var out Request
	frameTrip(t, in, &out)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("negative ints: got %+v, want %+v", out.Join, in.Join)
	}
}

// TestSummaryRoundTripAllocs pins the per-frame cost that gob used to
// dominate: a Summary through Conn is one buffer to send, and one
// buffer plus the JoinSummary to receive.
func TestSummaryRoundTripAllocs(t *testing.T) {
	send, recv, _ := loopback()
	in := &Frame{ID: 7, Summary: &JoinSummary{RevealedPairs: 12}}
	if n := testing.AllocsPerRun(100, func() {
		if err := send.Send(in); err != nil {
			t.Fatal(err)
		}
		var f Frame
		if err := recv.Recv(&f); err != nil {
			t.Fatal(err)
		}
		if f.Summary == nil || f.Summary.RevealedPairs != 12 {
			t.Fatalf("summary lost: %+v", f)
		}
	}); n > 5 {
		t.Errorf("Summary round trip: %v allocations, want at most 5", n)
	}
}

func BenchmarkSummaryRoundTrip(b *testing.B) {
	send, recv, _ := loopback()
	in := &Frame{ID: 7, Summary: &JoinSummary{RevealedPairs: 12}}
	b.ReportAllocs()
	for b.Loop() {
		if err := send.Send(in); err != nil {
			b.Fatal(err)
		}
		var f Frame
		if err := recv.Recv(&f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseUpload parses the upload request of one table the
// shape the ingest workload uploads: 16 rows at d = 8, so a 516-byte
// join ciphertext (a count and eight 64-byte G1 points) and a sealed
// payload of 60 to 100 bytes per row.
func BenchmarkParseUpload(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]UploadRow, 16)
	for i := range rows {
		rows[i] = UploadRow{JoinCiphertext: make([]byte, 4+8*64), Payload: make([]byte, 60+rng.Intn(41))}
	}
	req := payload(b, &Request{ID: 1, Upload: &UploadRequest{Table: "T", Rows: rows, Commit: true, NDV: 16}})
	b.SetBytes(int64(len(req)))
	b.ReportAllocs()
	for b.Loop() {
		var r Request
		if err := unmarshal(req, &r); err != nil {
			b.Fatal(err)
		}
	}
}

// payload returns v's encoding without the frame header.
func payload(t testing.TB, v any) []byte {
	t.Helper()
	b, err := marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b[4:]
}

// cut returns b without its last n bytes.
func cut(b []byte, n int) []byte { return b[:len(b)-n] }

func join(b ...[]byte) []byte { return bytes.Join(b, nil) }

// badPayloads are malformed request and frame payloads, each parsed as
// both a Request and a Frame; the fuzz corpora under
// testdata/fuzz/FuzzParse{Request,Frame} hold the same shapes.
func badPayloads(t *testing.T) map[string][]byte {
	joinReq := payload(t, &Request{ID: 1, Join: &JoinRequest{TableA: "A", TableB: "B", TokenA: []byte{1}, TokenB: []byte{2}}})
	batch := payload(t, &Frame{ID: 3, Batch: &JoinBatch{Rows: []JoinedRow{{RowA: 1, RowB: 2, PayloadA: []byte("a")}}}})
	summary := payload(t, &Frame{ID: 3, Summary: &JoinSummary{RevealedPairs: 5}})
	return map[string][]byte{
		"empty":        {},
		"unknown kind": {9, 1},
		"hello kind":   {kindHello, Version},
		// ID 1, no upload, join present, table name of 2^62 bytes
		"string past the end":   {kindRequest, 1, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
		"truncated join":        cut(joinReq, 3),
		"request trailing byte": append(joinReq, 0),
		"frame trailing byte":   append(summary, 0),
		"non-minimal uvarint":   {kindFrame, 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 0},
		"overlong uvarint":      join([]byte{kindFrame}, bytes.Repeat([]byte{0xff}, 10), []byte{1}),
		"bool 2":                {kindFrame, 1, 0, 2, 0, 0, 0, 0, 0, 0},
		"presence 2":            {kindFrame, 1, 0, 0, 2, 0, 0, 0, 0, 0},
		// ID 1, upload present, table "", 2^40 rows
		"huge upload row count": {kindRequest, 1, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0},
		// ID 1, no upload, join present, tables "" "", four empty blobs,
		// workers 0, 2^40 candidates
		"huge candidate count": {kindRequest, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0},
		// ID 1, Err "", not Ok, no batch or summary, tables present, 2^40 of them
		"huge table count": {kindFrame, 1, 0, 0, 0, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0},
		// the batch's row record holds one trailing byte inside its length
		"bad row record":        {kindFrame, 1, 0, 0, 1, 2, 0, 0xff, 0, 0, 0, 0, 0},
		"batch past the end":    cut(batch, 6),
		"truncated summary":     cut(summary, 6),
		"truncated float64":     {kindFrame, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"summary as request":    summary,
		"join request as frame": joinReq,
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for name, b := range badPayloads(t) {
		var req Request
		if err := unmarshal(b, &req); !errors.Is(err, ErrBadFrame) && name != "join request as frame" {
			t.Errorf("%s as a Request: got %v, want ErrBadFrame", name, err)
		}
		var f Frame
		if err := unmarshal(b, &f); !errors.Is(err, ErrBadFrame) && name != "summary as request" {
			t.Errorf("%s as a Frame: got %v, want ErrBadFrame", name, err)
		}
	}
}

// TestParseCaps: a field over its cap is refused by the receiver before
// it decodes or allocates, and by the sender before it writes anything.
func TestParseCaps(t *testing.T) {
	over := map[string]*Request{
		"token":      {ID: 1, Join: &JoinRequest{TokenA: make([]byte, maxTokenBytes+1)}},
		"prefilter":  {ID: 1, Submit: &SubmitRequest{Join: &JoinRequest{PrefilterB: make([]byte, maxPrefilterBytes+1)}}},
		"candidates": {ID: 1, Join: &JoinRequest{CandidatesB: make([]int, maxCandidates+1)}},
		"upload":     {ID: 1, Upload: &UploadRequest{Rows: make([]UploadRow, maxUploadRows+1)}},
	}
	for name, req := range over {
		var buf bytes.Buffer
		if err := NewConn(&buf).Send(req); err == nil || buf.Len() != 0 {
			t.Errorf("%s over its cap: Send wrote %d bytes, err %v", name, buf.Len(), err)
		}
		// The same message as the codec would write it without the check.
		e := encoder{}
		e.message(req)
		var got Request
		if err := unmarshal(e.b, &got); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s over its cap: got %v, want ErrBadFrame", name, err)
		}
	}
	at := &Request{ID: 1, Join: &JoinRequest{TokenA: make([]byte, maxTokenBytes), CandidatesA: make([]int, 3)}}
	var got Request
	if err := unmarshal(payload(t, at), &got); err != nil || len(got.Join.TokenA) != maxTokenBytes {
		t.Fatalf("token at its cap: %v", err)
	}
}

func TestSendRecvRejectOtherTypes(t *testing.T) {
	send, recv, _ := loopback()
	if err := send.Send(Frame{ID: 1}); err == nil {
		t.Fatal("Send accepted a Frame value")
	}
	if err := send.Send(&Frame{ID: 1, Ok: true}); err != nil {
		t.Fatal(err)
	}
	var s JoinSummary
	if err := recv.Recv(&s); err == nil {
		t.Fatal("Recv decoded into a *JoinSummary")
	}
}

// fuzzParse: the decoder never panics, fails only with ErrBadFrame, and
// what it accepts re-encodes to exactly the input.
func fuzzParse[T any](f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		if err := unmarshal(b, &v); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		again, err := marshal(&v)
		if err != nil {
			t.Fatalf("accepted message does not encode: %v", err)
		}
		if !bytes.Equal(again[4:], b) {
			t.Fatalf("accepted a non-canonical encoding: %x re-encodes as %x", b, again[4:])
		}
	})
}

// FuzzParseRequest is the server's view: every request frame a peer
// sends. The corpus under testdata/fuzz/FuzzParseRequest holds
// badPayloads, a v4 gob Hello and valid join, upload and submit
// requests.
func FuzzParseRequest(f *testing.F) { fuzzParse[Request](f) }

// FuzzParseFrame is the client's view: every response frame. The
// corpus under testdata/fuzz/FuzzParseFrame holds badPayloads, a v4
// gob HelloAck and valid batch, summary, table list, health and job
// frames.
func FuzzParseFrame(f *testing.F) { fuzzParse[Frame](f) }
