package engine

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/securejoin"
)

// TestJoinStreamMatchesDrain drains a stream with batch size 1
// and checks it produces exactly the rows and trace of the one-shot
// path.
func TestJoinStreamMatchesDrain(t *testing.T) {
	client, server := setup(t)
	sel := securejoin.Selection{}

	q1, err := client.NewQuery(sel, sel)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTrace, err := join(server, "Teams", "Employees", JoinSpec{Query: q1})
	if err != nil {
		t.Fatal(err)
	}

	q2, err := client.NewQuery(sel, sel)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := server.OpenJoin("Teams", "Employees", JoinSpec{Query: q2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Trace() != nil {
		t.Fatal("trace available before stream exhausted")
	}
	var got []JoinedRow
	batches := 0
	for {
		rows, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 1 {
			t.Fatalf("batch of %d rows exceeds batch size 1", len(rows))
		}
		batches++
		got = append(got, rows...)
	}
	if batches < len(got) {
		t.Fatalf("%d rows arrived in %d batches; want at least one batch per probe row", len(got), batches)
	}
	if len(got) != len(want) {
		t.Fatalf("stream produced %d rows, Drain %d", len(got), len(want))
	}
	match := make(map[string]bool, len(want))
	for _, r := range want {
		match[fmt.Sprintf("%d/%d", r.RowA, r.RowB)] = true
	}
	for _, r := range got {
		if !match[fmt.Sprintf("%d/%d", r.RowA, r.RowB)] {
			t.Fatalf("stream produced unexpected pair (%d,%d)", r.RowA, r.RowB)
		}
	}
	if stream.RevealedPairs() != wantTrace.Pairs().Len() {
		t.Fatalf("stream trace %d pairs, Drain trace %d", stream.RevealedPairs(), wantTrace.Pairs().Len())
	}
	// Exhausted stream keeps returning EOF.
	if _, err := stream.Next(); err != io.EOF {
		t.Fatalf("Next after EOF: %v", err)
	}
}

// TestJoinStreamCloseRecordsPartialLeakage: a stream released before
// being drained must still contribute the pairs the server already
// observed to the audit log.
func TestJoinStreamCloseRecordsPartialLeakage(t *testing.T) {
	client, server := setup(t)
	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := server.OpenJoin("Teams", "Employees", JoinSpec{Query: q, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Next() // one probe row: employee 0 matches team 0
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("first batch has %d rows, want 1", len(rows))
	}
	st.Close()
	if st.Trace() == nil {
		t.Fatal("closed stream has no trace")
	}
	if st.RevealedPairs() != 1 {
		t.Fatalf("partial trace has %d pairs, want 1", st.RevealedPairs())
	}
	if queries, closure := server.ObservedLeakage(); queries != 1 || !closure.Equal(st.Trace().Pairs()) || closure.Len() != 1 {
		t.Fatalf("ledger holds %d trace(s), closure %v; want the one 1-pair trace", queries, closure.Sorted())
	}
	// Close is idempotent and does not double-record.
	st.Close()
	if queries, _ := server.ObservedLeakage(); queries != 1 {
		t.Fatalf("second Close recorded a trace: %d recorded", queries)
	}
}

// TestJoinStreamSigmaIsClassSizes: the stream's running sigma(q) count
// is read off class sizes, never off materialised pairs, so it must
// equal the expansion of the trace in every way a stream can end. The
// self-join is the case where counting rows would be wrong: one
// physical row is the same RowRef on both sides and pairs with itself
// on neither.
func TestJoinStreamSigmaIsClassSizes(t *testing.T) {
	client, server := setup(t)
	// People: rows 0, 1, 2 share a join value; attribute "a" selects rows
	// 0, 2 and 3. Self-joined with that selection on side A only, side A
	// leaks the class {0,2} and probing row 1 grows it to {0,1,2}; rows
	// 0, 2 and 3 arrive on side B as the rows side A already holds.
	people := []PlainRow{
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("a")}},
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("b")}},
		{JoinValue: []byte("x"), Attrs: [][]byte{[]byte("a")}},
		{JoinValue: []byte("y"), Attrs: [][]byte{[]byte("a")}},
	}
	encP, err := client.EncryptTable("People", people)
	if err != nil {
		t.Fatal(err)
	}
	register(t, server, encP)
	// Broken is Teams with a first row no token can decrypt: a probe over
	// it fails at its first batch.
	teams, _ := exampleTables()
	broken, err := client.EncryptTable("Broken", teams)
	if err != nil {
		t.Fatal(err)
	}
	broken.Rows[0].Join.C.Elems = broken.Rows[0].Join.C.Elems[:1]
	register(t, server, broken)

	selA := securejoin.Selection{0: [][]byte{[]byte("a")}}
	for _, tc := range []struct {
		name           string
		tableA, tableB string
		selA           securejoin.Selection
		batches        int // Next calls before Close; -1 drains
		failing        bool
		want           int
	}{
		{"self-join drained", "People", "People", selA, -1, false, 3},
		{"self-join closed before the first probe", "People", "People", selA, 0, false, 1},
		{"self-join closed after the duplicate row", "People", "People", selA, 1, false, 1},
		{"self-join closed after the new row", "People", "People", selA, 2, false, 3},
		// Employees' two intra-A classes are visible although no probe
		// batch ever succeeds.
		{"failed first Next keeps the build side", "Employees", "Broken", securejoin.Selection{}, 1, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := client.NewQuery(tc.selA, securejoin.Selection{})
			if err != nil {
				t.Fatal(err)
			}
			before := server.ClosurePairs()
			st, err := server.OpenJoin(tc.tableA, tc.tableB, JoinSpec{Query: q, Batch: 1})
			if err != nil {
				t.Fatal(err)
			}
			var nextErr error
			for i := 0; i != tc.batches && nextErr == nil; i++ {
				_, nextErr = st.Next()
			}
			if failed := nextErr != nil && nextErr != io.EOF; failed != tc.failing {
				t.Fatalf("Next error = %v, want failure: %v", nextErr, tc.failing)
			}
			st.Close()
			pairs := st.Trace().Pairs()
			if st.RevealedPairs() != tc.want || pairs.Len() != tc.want {
				t.Fatalf("RevealedPairs = %d, trace expands to %d pairs, want %d: %v",
					st.RevealedPairs(), pairs.Len(), tc.want, pairs.Sorted())
			}
			_, closure := server.ObservedLeakage()
			for p := range pairs {
				if !closure.Contains(p) {
					t.Fatalf("ledger is missing %v", p)
				}
			}
			if grew := server.ClosurePairs() - before; grew != 0 && len(st.Trace().Merges) == 0 {
				t.Fatalf("closure grew by %d pairs but the stream reports no merges", grew)
			}
		})
	}
}

// TestConcurrentJoins runs joins from many goroutines against
// shared read-only tables plus concurrent uploads of fresh tables; with
// -race this validates the RWMutex table store and the separate trace
// lock.
func TestConcurrentJoins(t *testing.T) {
	client, server := setup(t)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)

	// Concurrent writer: re-upload a table under a new name repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		teams, _ := exampleTables()
		for i := 0; i < 4; i++ {
			enc, err := client.EncryptTable(fmt.Sprintf("Scratch-%d", i), teams)
			if err != nil {
				errs <- err
				return
			}
			if err := server.RegisterTable(enc); err != nil {
				errs <- err
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
			if err != nil {
				errs <- err
				return
			}
			rows, trace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
			if err != nil {
				errs <- err
				return
			}
			if len(rows) != 4 {
				errs <- fmt.Errorf("concurrent join: %d rows, want 4", len(rows))
				return
			}
			if trace.Pairs().Len() == 0 {
				errs <- errors.New("concurrent join recorded empty trace")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Eight identical queries merged concurrently teach what one does.
	queries, closure := server.ObservedLeakage()
	if queries != goroutines || closure.Len() != 6 || server.ClosurePairs() != 6 {
		t.Fatalf("recorded %d traces and a closure of %d pairs, want %d and 6", queries, closure.Len(), goroutines)
	}
}

// TestOpenPayloadAuthError: tampered or foreign payloads yield the
// typed ErrPayloadAuth.
func TestOpenPayloadAuthError(t *testing.T) {
	client, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := client.payloadNonce()
	if err != nil {
		t.Fatal(err)
	}
	sealed := client.sealPayload(nonce, []byte("secret"))

	// Round trip works.
	pt, err := client.OpenPayload(sealed)
	if err != nil || string(pt) != "secret" {
		t.Fatalf("open: %q, %v", pt, err)
	}
	// Tampered ciphertext fails with the typed error.
	tampered := append([]byte{}, sealed...)
	tampered[len(tampered)-1] ^= 1
	if _, err := client.OpenPayload(tampered); !errors.Is(err, ErrPayloadAuth) {
		t.Fatalf("tampered payload: got %v, want ErrPayloadAuth", err)
	}
	// Too-short blob fails with the typed error too.
	if _, err := client.OpenPayload([]byte{1, 2}); !errors.Is(err, ErrPayloadAuth) {
		t.Fatalf("short payload: got %v, want ErrPayloadAuth", err)
	}
	// A different client's key cannot open it.
	other, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.OpenPayload(sealed); !errors.Is(err, ErrPayloadAuth) {
		t.Fatalf("foreign key: got %v, want ErrPayloadAuth", err)
	}
}

// TestSealPayloadUsesClientRNG: with a deterministic rng the nonce —
// and therefore the whole sealed blob — is reproducible, proving
// payloadNonce draws from the configured rng rather than crypto/rand.
func TestSealPayloadUsesClientRNG(t *testing.T) {
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{payloadAEAD: aead, rng: zeroReader{}}
	seal := func() []byte {
		nonce, err := c.payloadNonce()
		if err != nil {
			t.Fatal(err)
		}
		return c.sealPayload(nonce, []byte("p"))
	}
	s1, s2 := seal(), seal()
	if !bytes.Equal(s1, s2) {
		t.Fatal("payloadNonce ignored the client's deterministic rng")
	}
	ns := aead.NonceSize()
	if !bytes.Equal(s1[:ns], make([]byte, ns)) {
		t.Fatal("nonce not drawn from the configured rng")
	}
}

// zeroReader yields an endless stream of zero bytes.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}
