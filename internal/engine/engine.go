// Package engine implements the database-as-a-service system model of
// Section 2 on top of the Secure Join scheme: a Client that owns the
// master secret key, encrypts tables and issues query tokens, and a
// Server that stores only ciphertexts and executes SJ.Dec + SJ.Match as
// an O(n) hash join. Row payloads (the full attribute tuples returned in
// join results) are protected with client-side AES-GCM, so the server
// handles them only as opaque blobs.
//
// The Server is safe for concurrent use: the table store is guarded by
// an RWMutex (uploads take the write lock, queries only a brief read
// lock to snapshot the immutable tables), and leakage traces are
// recorded under a separate lock, so joins — thousands of pairing
// operations each — run truly in parallel. Join results are produced
// incrementally through JoinStream, whose Next method yields bounded
// batches as SJ.Match progresses instead of materializing the whole
// result set; Drain collects a stream for callers that want it whole.
//
// The server additionally folds the equality classes each query's
// execution observed — the sigma(q) trace of Section 5.2 — into one
// leakage.Ledger, so examples and tests can audit what a series revealed.
package engine

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/leakage"
	"repro/internal/securejoin"
	"repro/internal/sse"
	"repro/internal/wire"
)

// ErrPayloadAuth is returned by OpenPayload when a sealed payload fails
// AEAD authentication — the blob was sealed under a different key or
// tampered with in transit.
var ErrPayloadAuth = errors.New("engine: payload authentication failed")

// PlainRow is one client-side row: the join value, the filterable
// attribute values (in scheme attribute order) and an arbitrary payload
// (e.g. the rendered full tuple) returned with join results.
type PlainRow struct {
	JoinValue []byte
	Attrs     [][]byte
	Payload   []byte
}

// EncryptedRow is the server-side image of one row.
type EncryptedRow struct {
	Join    *securejoin.RowCiphertext
	Payload []byte // AES-GCM sealed under the client's payload key
}

// EncryptedTable is an uploaded table. Index is the optional SSE
// pre-filter index (see prefilter.go); it is nil for tables uploaded
// with EncryptTable. Once uploaded, a table is immutable — re-uploads
// replace the whole table — which is what lets queries snapshot it
// under a brief read lock.
//
// Shard/ShardCount annotate a table that is one hash-partition of a
// larger logical table sharded client-side on the join key (see
// client.Cluster): this server holds shard Shard of ShardCount. They
// are metadata only — the engine stores and joins a shard exactly like
// a whole table — and zero for unsharded tables.
//
// NDV is the number of distinct join values of the table, counted
// client-side at encrypt time (the server only ever sees ciphertexts,
// so it could not compute this itself). It is planner metadata only —
// 0 means unknown — and feeds the SQL planner's selectivity estimates
// through TableStats/Describe.
type EncryptedTable struct {
	Name       string
	Rows       []*EncryptedRow
	Index      *sse.Index
	Shard      int
	ShardCount int
	NDV        int
}

// TokenDim is the element count a join token against t must have: its
// rows' one dimension M(T+1)+3, or, t having no rows, other.
func (t *EncryptedTable) TokenDim(other int) int {
	if len(t.Rows) == 0 {
		return other
	}
	return len(t.Rows[0].Join.C.Elems)
}

// Client holds all secret material: the Secure Join master key, the
// payload encryption key and the SSE index keys.
type Client struct {
	scheme      *securejoin.Scheme
	payloadAEAD cipher.AEAD
	payloadKey  []byte
	sse         *sse.Client
	rng         io.Reader
}

// NewClient creates a client for tables with the given Secure Join
// parameters. If rng is nil crypto/rand is used. The rng supplies ALL
// client randomness — keys and the AES-GCM payload nonces — so a
// deterministic rng is for reproducible tests only: reusing one across
// clients, or re-running it against the same key, repeats (key, nonce)
// pairs, which breaks GCM entirely.
func NewClient(params securejoin.Params, rng io.Reader) (*Client, error) {
	scheme, err := securejoin.Setup(params, rng)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.Reader
	}
	key := make([]byte, 32)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("engine: sampling payload key: %w", err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	sseClient, err := sse.NewClient(rng)
	if err != nil {
		return nil, err
	}
	return &Client{scheme: scheme, payloadAEAD: aead, payloadKey: key, sse: sseClient, rng: rng}, nil
}

// Params returns the scheme parameters of the client.
func (c *Client) Params() securejoin.Params { return c.scheme.Params() }

// EncryptTable encrypts a table for upload on all GOMAXPROCS cores.
// The client's rng is read only here, on the calling goroutine, in the
// order a row-at-a-time loop reads it — per row gamma1, gamma2, then
// the payload nonce — so a seeded rng yields the same table at any core
// count. The row pool then runs the group work and the AES-GCM seal,
// which read no rng, a block of rows per task (Scheme.BlockRows): the
// block's base multiplications share the comb's lanes and one field
// inversion.
func (c *Client) EncryptTable(name string, rows []PlainRow) (*EncryptedTable, error) {
	rowErr := func(i int, err error) error {
		return fmt.Errorf("engine: encrypting row %d of %s: %w", i, name, err)
	}
	drawn := make([]securejoin.DrawnRow, len(rows))
	nonces := make([][]byte, len(rows))
	for i, r := range rows {
		var err error
		if drawn[i], err = c.scheme.DrawRow(securejoin.Row{JoinValue: r.JoinValue, Attrs: r.Attrs}); err != nil {
			return nil, rowErr(i, err)
		}
		if nonces[i], err = c.payloadNonce(); err != nil {
			return nil, err
		}
	}
	out := &EncryptedTable{Name: name, Rows: make([]*EncryptedRow, len(rows)), NDV: countDistinctJoinValues(rows)}
	per := c.scheme.BlockRows()
	err := securejoin.ForEachRow((len(rows)+per-1)/per, 0, func(b int) error {
		lo, hi := b*per, min((b+1)*per, len(rows))
		cts, err := c.scheme.EncryptBlock(drawn[lo:hi])
		if err != nil {
			return rowErr(lo, err)
		}
		for i, jc := range cts {
			out.Rows[lo+i] = &EncryptedRow{Join: jc, Payload: c.sealPayload(nonces[lo+i], rows[lo+i].Payload)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// countDistinctJoinValues is the join-column NDV stamped onto encrypted
// tables: only the key owner can count plaintext join values, so this
// happens at encrypt time and travels with the upload as metadata.
func countDistinctJoinValues(rows []PlainRow) int {
	seen := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		seen[string(r.JoinValue)] = struct{}{}
	}
	return len(seen)
}

// NewQuery issues the two tokens of one equi-join query.
func (c *Client) NewQuery(selA, selB securejoin.Selection) (*securejoin.Query, error) {
	return c.scheme.NewQuery(selA, selB)
}

// OpenPayload decrypts a payload blob from a join result into a new
// slice. A blob that fails authentication yields an error wrapping
// ErrPayloadAuth.
func (c *Client) OpenPayload(sealed []byte) ([]byte, error) {
	return c.openPayload(sealed, false)
}

// openPayload decrypts sealed, into its own ciphertext bytes when
// inPlace is set. The plaintext is capped at its own length, so an
// append to it never writes past it.
func (c *Client) openPayload(sealed []byte, inPlace bool) ([]byte, error) {
	ns := c.payloadAEAD.NonceSize()
	if len(sealed) < ns {
		return nil, fmt.Errorf("%w: sealed payload shorter than nonce", ErrPayloadAuth)
	}
	nonce, ct := sealed[:ns], sealed[ns:]
	var dst []byte
	if inPlace {
		dst = ct[:0]
	}
	pt, err := c.payloadAEAD.Open(dst, nonce, ct, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPayloadAuth, err)
	}
	return pt[:len(pt):len(pt)], nil
}

// OpenRow opens both sealed payloads of a join result row into new
// slices, leaving r's bytes as they are: the opener of bytes it does
// not own, such as the server's table payloads an in-process join
// returns. A sealed payload is never empty (it holds at least a nonce
// and a tag), so an empty one is a side whose payload the server
// skipped (a key-only projection): it stays nil.
func (c *Client) OpenRow(r *JoinedRow) (pa, pb []byte, err error) {
	return c.openRow(r, false)
}

// OpenRowInPlace opens both sealed payloads of r as OpenRow does, but
// decrypts each over its own ciphertext: the plaintexts alias r's
// payloads, each capped at its own length, and the sealed bytes are
// gone (zeroed, for a payload that fails authentication). Only the
// owner of those bytes may call it — a client on the frame buffer Recv
// allocated for it.
func (c *Client) OpenRowInPlace(r *JoinedRow) (pa, pb []byte, err error) {
	return c.openRow(r, true)
}

func (c *Client) openRow(r *JoinedRow, inPlace bool) (pa, pb []byte, err error) {
	if len(r.PayloadA) > 0 {
		if pa, err = c.openPayload(r.PayloadA, inPlace); err != nil {
			return nil, nil, fmt.Errorf("payload A of row %d: %w", r.RowA, err)
		}
	}
	if len(r.PayloadB) > 0 {
		if pb, err = c.openPayload(r.PayloadB, inPlace); err != nil {
			return nil, nil, fmt.Errorf("payload B of row %d: %w", r.RowB, err)
		}
	}
	return pa, pb, nil
}

// payloadNonce draws one AES-GCM nonce from the client's rng.
func (c *Client) payloadNonce() ([]byte, error) {
	nonce := make([]byte, c.payloadAEAD.NonceSize())
	if _, err := io.ReadFull(c.rng, nonce); err != nil {
		return nil, fmt.Errorf("engine: sampling payload nonce: %w", err)
	}
	return nonce, nil
}

// sealPayload seals pt under nonce and prefixes the nonce to the blob.
// It reads no rng and is safe for concurrent use.
func (c *Client) sealPayload(nonce, pt []byte) []byte {
	return c.payloadAEAD.Seal(nonce, nonce, pt, nil)
}

// JoinedRow is one element of a join result: the matching rows and
// their sealed payloads, the row a JoinBatch frame and a job spool carry.
type JoinedRow = wire.JoinedRow

// QueryTrace is the server-observable leakage of one query, sigma(q) of
// Section 5.2: the classes of rows (of either table) whose D values came
// out equal. Merges is what of it was news to the server's ledger —
// nothing, for a repeated query — and all a durable server persists.
type QueryTrace struct {
	Classes [][]leakage.RowRef
	Merges  [][]leakage.RowRef
}

// Pairs expands the classes into the revealed equality pairs.
func (t *QueryTrace) Pairs() leakage.PairSet { return leakage.Expand(t.Classes) }

// TableStore is the optional durability hook of a Server: when set,
// RegisterTable persists each table version through it before the
// in-memory map changes, so a table is never acknowledged that a
// restart would lose. internal/store implements it over a
// snapshot-plus-manifest data directory.
type TableStore interface {
	// Commit makes one table version durable, atomically replacing any
	// previous version of the same name.
	Commit(t *EncryptedTable) error
}

// Server stores encrypted tables and executes join queries. It holds no
// key material and is safe for concurrent use.
type Server struct {
	// registerMu serializes RegisterTable's persist+install sequences so
	// the durable log and the in-memory map apply table versions in the
	// same order.
	registerMu sync.Mutex
	store      TableStore

	// tablesMu guards the table map only. Uploaded tables themselves
	// are immutable, so queries hold the read lock just long enough to
	// snapshot the two *EncryptedTable pointers.
	tablesMu sync.RWMutex
	tables   map[string]*EncryptedTable

	// traceMu guards the leakage ledger, separately from the table
	// store so concurrent joins serialize only on the cheap class
	// merges, never on the pairing-heavy execution.
	traceMu sync.Mutex
	ledger  *leakage.Ledger
	queries atomic.Int64 // traces recorded by this process

	// met is the instrumentation surface (see metrics.go). The zero
	// value records nothing; Instrument replaces it before serving.
	met Metrics
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		tables: make(map[string]*EncryptedTable),
		ledger: leakage.NewLedger(),
	}
}

// SetStore attaches the durability hook. Call it before serving
// requests — typically right after restoring the store's tables with
// RegisterTable — so every subsequent RegisterTable persists.
func (s *Server) SetStore(st TableStore) {
	s.registerMu.Lock()
	s.store = st
	s.registerMu.Unlock()
}

// RegisterTable stores an encrypted table, replacing any previous
// version of the same name. With a TableStore attached the version is
// persisted first and an error leaves the in-memory map — and hence
// every concurrent query — still on the previous version; without one
// it installs the table in memory only and cannot fail. Replacement is
// atomic for readers: a query snapshots either the old table (with its
// old SSE index) or the new one, never a mix.
func (s *Server) RegisterTable(t *EncryptedTable) error {
	s.registerMu.Lock()
	defer s.registerMu.Unlock()
	if s.store != nil {
		if err := s.store.Commit(t); err != nil {
			return fmt.Errorf("engine: persisting table %q: %w", t.Name, err)
		}
	}
	s.tablesMu.Lock()
	s.tables[t.Name] = t
	s.tablesMu.Unlock()
	return nil
}

// TableStat summarizes one stored table for catalog discovery — name,
// row count, SSE-index presence, shard annotations and the
// client-computed distinct-join-value count — as the server's Describe
// answer carries it over the wire.
type TableStat = wire.TableInfo

// TableStats lists the stored tables, sorted by name.
func (s *Server) TableStats() []TableStat {
	s.tablesMu.RLock()
	out := make([]TableStat, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, TableStat{
			Name: t.Name, Rows: len(t.Rows), Indexed: t.Index != nil,
			Shard: t.Shard, ShardCount: t.ShardCount, NDV: t.NDV,
		})
	}
	s.tablesMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table returns an uploaded table.
func (s *Server) Table(name string) (*EncryptedTable, error) {
	s.tablesMu.RLock()
	t, ok := s.tables[name]
	s.tablesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// Tables resolves both join operands under one read-lock acquisition.
func (s *Server) Tables(tableA, tableB string) (ta, tb *EncryptedTable, err error) {
	s.tablesMu.RLock()
	ta, okA := s.tables[tableA]
	tb, okB := s.tables[tableB]
	s.tablesMu.RUnlock()
	if !okA {
		return nil, nil, fmt.Errorf("engine: unknown table %q", tableA)
	}
	if !okB {
		return nil, nil, fmt.Errorf("engine: unknown table %q", tableB)
	}
	return ta, tb, nil
}

// AddLeakage folds classes of rows known to be equal into the ledger —
// a terminating stream's sigma(q) or, at recovery, the merges an earlier
// process persisted — and returns the merges that changed it.
func (s *Server) AddLeakage(classes [][]leakage.RowRef) [][]leakage.RowRef {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	merges := s.ledger.Add(classes)
	if len(merges) > 0 {
		for table, n := range s.ledger.Touching() {
			s.met.RevealedPairs.With(table).Set(int64(n))
		}
	}
	return merges
}

// ClosurePairs is the size of the closure of everything revealed so far.
func (s *Server) ClosurePairs() int {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.ledger.Pairs()
}

// DefaultBatchSize is the number of rows per JoinStream batch when the
// caller does not choose one; the protocol layer inherits it as the
// default response-frame bound.
const DefaultBatchSize = 256

// JoinSpec is the plan of one join execution. Every join — library
// one-shot, streamed over the wire, pre-filtered or full scan — is
// described by a spec and executed by the one pipeline behind OpenJoin:
//
//	candidate selection -> parallel SJ.Dec (build side) ->
//	incremental SJ.Dec + hash-match (probe side) ->
//	leakage accounting -> bounded batches
type JoinSpec struct {
	// Query holds the two per-query join tokens. It may be left nil
	// when Prefilter is set (Prefilter.Join is used then).
	Query *securejoin.Query
	// Prefilter optionally carries the SSE search tokens of the
	// query's selections; candidate selection then resolves them
	// against the tables' indexes so SJ.Dec runs only over matching
	// rows. Nil means full scan (the paper's exact leakage profile).
	Prefilter *PrefilterQuery
	// CandidatesA/B optionally restrict each side to an explicit row-id
	// list — the semi-join reduction: a multi-join executor ships the
	// hub rows matched by the previous step so SJ.Dec runs only over
	// them. They compose with Prefilter by intersection, and with each
	// other by the usual semantics: empty (or nil) means no explicit
	// restriction. Leakage-neutral: the lists contain only row ids whose
	// match status sigma(q) of the prior step already revealed.
	CandidatesA []int
	CandidatesB []int
	// SkipPayloadA/B omit that side's sealed payload from every emitted
	// JoinedRow — the key-only projection: when the query's SELECT list
	// references no payload of the side, there is nothing to ship or
	// for the client to open. Strictly leakage-reducing (the server
	// streams fewer of the opaque blobs it stores).
	SkipPayloadA bool
	SkipPayloadB bool
	// Batch bounds the probe-side rows per Next call; <= 0 selects
	// DefaultBatchSize.
	Batch int
	// Workers bounds the SJ.Dec worker pool per decrypt phase;
	// <= 0 uses GOMAXPROCS, 1 forces sequential decryption.
	Workers int
	// Progress, when non-nil, is called after each completed pipeline
	// step — the build-side decrypt, then every probe batch — with the
	// running totals so far. It runs on the goroutine draining the
	// stream, so implementations must be fast and must synchronize their
	// own state; the async job table uses it to publish live JobStatus.
	Progress func(JoinProgress)
}

// JoinProgress is the progress so far of one join execution,
// reported through JoinSpec.Progress.
type JoinProgress struct {
	// RowsDecrypted counts rows run through SJ.Dec so far, build and
	// probe sides alike.
	RowsDecrypted int
	// StepsDone counts completed pipeline steps: 1 for the build-side
	// decrypt+index, plus 1 per probe batch.
	StepsDone int
	// RevealedPairs is the size of sigma(q) accumulated so far.
	RevealedPairs int
}

// query resolves the join tokens of a spec. A table without rows needs
// no token: the side's token may be nil.
func (spec *JoinSpec) query(ta, tb *EncryptedTable) (*securejoin.Query, error) {
	q := spec.Query
	if q == nil && spec.Prefilter != nil {
		q = spec.Prefilter.Join
	}
	if q == nil || (q.TokenA == nil && len(ta.Rows) > 0) || (q.TokenB == nil && len(tb.Rows) > 0) {
		return nil, errors.New("engine: join spec carries no query tokens")
	}
	return q, nil
}

// JoinStream produces the results of one equi-join query in bounded
// batches. Opening the stream runs the front of the pipeline: the
// tables are snapshotted, candidate rows are resolved (via the SSE
// pre-filter when the spec carries one), and the build side is
// decrypted by a parallel SJ.Dec worker pool and indexed. Each Next
// call then decrypts one batch of probe-side candidates, probes the
// hash index and returns the matches it produced, so peak memory is
// independent of the result cardinality. Once the stream terminates —
// exhausted, failed, or released early with Close — the leakage
// observed up to that point has been recorded and Trace/RevealedPairs
// report it.
type JoinStream struct {
	srv            *Server
	tableA, tableB string
	ta, tb         *EncryptedTable
	tokenB         *securejoin.TokenPrecomp // probe-side token's Miller program
	batch          int
	workers        int

	index    map[string][]int // D value of A -> rows, the build side
	probe    []int            // candidate rows of B, ascending; nil = every row
	skipA    bool             // key-only projection: omit side-A payloads
	skipB    bool             // key-only projection: omit side-B payloads
	bucketsB map[string][]int // D value of B -> rows seen so far
	revealed int              // |sigma(q)| so far, the pairs within the classes of index+bucketsB
	next     int              // next entry of probe to decrypt
	trace    *QueryTrace      // set when the stream terminates
	err      error            // sticky terminal error, re-returned by Next
	started  time.Time        // stream open time, for the join wall-time histogram

	progress  func(JoinProgress) // optional per-step progress hook
	rowsDec   int                // rows decrypted so far, both sides
	stepsDone int                // completed pipeline steps
}

// reportProgress publishes the stream's running totals through the
// spec's hook, if any.
func (st *JoinStream) reportProgress() {
	if st.progress == nil {
		return
	}
	st.progress(JoinProgress{
		RowsDecrypted: st.rowsDec,
		StepsDone:     st.stepsDone,
		RevealedPairs: st.revealed,
	})
}

// OpenJoin starts one planned equi-join query: candidate selection and
// the parallel SJ.Dec + index build over table A happen up front, then
// SJ.Dec + SJ.Match run over table B's candidates incrementally as the
// stream is drained.
func (s *Server) OpenJoin(tableA, tableB string, spec JoinSpec) (*JoinStream, error) {
	ta, tb, err := s.Tables(tableA, tableB)
	if err != nil {
		return nil, err
	}
	q, err := spec.query(ta, tb)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	s.met.JoinsStarted.Inc()

	// Candidate selection: with a pre-filter, SSE resolves each side's
	// selection to the matching rows; otherwise every row is probed.
	var tokensA, tokensB map[int][]sse.SearchToken
	if spec.Prefilter != nil {
		tokensA, tokensB = spec.Prefilter.TokensA, spec.Prefilter.TokensB
	}
	candA, err := candidates(ta, tokensA)
	if err != nil {
		return nil, err
	}
	candB, err := candidates(tb, tokensB)
	if err != nil {
		return nil, err
	}
	// Explicit candidate lists (the semi-join reduction) intersect with
	// whatever the SSE pre-filter selected.
	candA = mergeCandidates(candA, spec.CandidatesA, len(ta.Rows))
	candB = mergeCandidates(candB, spec.CandidatesB, len(tb.Rows))

	// Each token's Miller program is recorded once, both at the same
	// time — the build side replays A's per row, the probe side B's per
	// batch. An empty table's token may be nil, and then records none.
	var tokenB *securejoin.TokenPrecomp
	done := make(chan struct{})
	go func() {
		defer close(done)
		tokenB = q.TokenB.Precompute()
	}()
	tokenA := q.TokenA.Precompute()
	<-done

	// Build side: parallel SJ.Dec over A's candidates, indexed by D
	// value under the original row numbers.
	decStart := time.Now()
	das, err := decryptRows(tokenA, ta, candA, spec.Workers)
	if err != nil {
		return nil, err
	}
	s.met.DecSeconds.Observe(time.Since(decStart).Seconds())
	s.met.RowsDecrypted.Add(uint64(len(das)))
	// A row entering the class of its D value pairs with every row in it:
	// intra-A pairs leak here, before the first probe.
	index := make(map[string][]int, len(das))
	revealed := 0
	for i, d := range das {
		revealed += len(index[string(d)])
		index[string(d)] = append(index[string(d)], candRow(candA, i))
	}
	batch := spec.Batch
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := &JoinStream{
		srv:    s,
		tableA: tableA, tableB: tableB,
		ta: ta, tb: tb,
		tokenB:   tokenB,
		batch:    batch,
		workers:  spec.Workers,
		index:    index,
		probe:    candB,
		skipA:    spec.SkipPayloadA,
		skipB:    spec.SkipPayloadB,
		bucketsB: make(map[string][]int),
		revealed: revealed,
		started:  started,
		progress: spec.Progress,
	}
	st.rowsDec = len(das)
	st.stepsDone = 1 // build side decrypted and indexed
	st.reportProgress()
	return st, nil
}

// Next returns the joined rows produced by the next batch of probe-side
// rows. A batch may be empty of matches yet non-terminal; the stream is
// exhausted when Next returns io.EOF, at which point the query trace
// has been recorded.
func (st *JoinStream) Next() ([]JoinedRow, error) {
	if st.trace != nil {
		if st.err != nil {
			return nil, st.err
		}
		return nil, io.EOF
	}
	total := candCount(st.probe, len(st.tb.Rows))
	if st.next >= total {
		st.finish()
		return nil, io.EOF
	}
	end := st.next + st.batch
	if end > total {
		end = total
	}
	batchRows := make([]int, end-st.next)
	for i := range batchRows {
		batchRows[i] = candRow(st.probe, st.next+i)
	}
	decStart := time.Now()
	chunk, err := decryptRows(st.tokenB, st.tb, batchRows, st.workers)
	if err != nil {
		st.err = err
		st.finish() // the pairs observed before the failure still leaked
		return nil, err
	}
	st.srv.met.DecSeconds.Observe(time.Since(decStart).Seconds())
	st.srv.met.RowsDecrypted.Add(uint64(len(chunk)))
	var out []JoinedRow
	for j, db := range chunk {
		rowB := candRow(st.probe, st.next+j)
		key := string(db)
		for _, rowA := range st.index[key] {
			jr := JoinedRow{RowA: rowA, RowB: rowB}
			if !st.skipA {
				jr.PayloadA = st.ta.Rows[rowA].Payload
			}
			if !st.skipB {
				jr.PayloadB = st.tb.Rows[rowB].Payload
			}
			out = append(out, jr)
		}
		// The row enters its class and pairs with every A and earlier B row
		// in it — unless, in a self-join, side A already put it there.
		if st.tableA != st.tableB || !slices.Contains(st.index[key], rowB) {
			st.revealed += len(st.index[key]) + len(st.bucketsB[key])
			st.bucketsB[key] = append(st.bucketsB[key], rowB)
		}
	}
	st.next = end
	st.rowsDec += len(chunk)
	st.stepsDone++
	st.reportProgress()
	return out, nil
}

// decryptRows runs SJ.Dec over the selected row subset (nil = every
// row) through a token's precomputed Miller program, spreading the
// pairings over a worker pool (workers <= 0 uses GOMAXPROCS).
func decryptRows(pc *securejoin.TokenPrecomp, t *EncryptedTable, rows []int, workers int) ([]securejoin.DValue, error) {
	cts := make([]*securejoin.RowCiphertext, candCount(rows, len(t.Rows)))
	for i := range cts {
		r := candRow(rows, i)
		if r < 0 || r >= len(t.Rows) {
			return nil, fmt.Errorf("engine: candidate row %d out of range", r)
		}
		cts[i] = t.Rows[r].Join
	}
	return securejoin.DecryptTableParallelWith(pc, cts, workers)
}

// classes reads sigma(q) off the two D-value maps: per D value, the A
// rows and the B rows that share it, when that is two rows or more.
func (st *JoinStream) classes() [][]leakage.RowRef {
	byKey := make(map[string][]leakage.RowRef, len(st.index))
	add := func(table string, side map[string][]int) {
		for key, rows := range side {
			for _, r := range rows {
				byKey[key] = append(byKey[key], leakage.RowRef{Table: table, Row: r})
			}
		}
	}
	add(st.tableA, st.index)
	add(st.tableB, st.bucketsB)
	var out [][]leakage.RowRef
	for _, class := range byKey {
		if len(class) >= 2 {
			out = append(out, class)
		}
	}
	return out
}

// finish records the leakage accumulated so far — the full sigma(q)
// when the stream is drained, a prefix when it failed or was released
// early. Idempotent.
func (st *JoinStream) finish() {
	if st.trace != nil {
		return
	}
	classes := st.classes()
	st.trace = &QueryTrace{Classes: classes, Merges: st.srv.AddLeakage(classes)}
	st.srv.queries.Add(1)
	st.srv.met.JoinsCompleted.Inc()
	st.srv.met.JoinSeconds.Observe(time.Since(st.started).Seconds())
}

// Close releases a stream without draining it. The leakage observed up
// to this point is recorded — a client hanging up mid-stream must not
// erase pairs the server already saw from the audit log. Idempotent;
// draining to io.EOF makes it a no-op.
func (st *JoinStream) Close() {
	st.finish()
}

// Trace returns the query's leakage trace. It is non-nil only once the
// stream has terminated (drained, failed, or closed).
func (st *JoinStream) Trace() *QueryTrace { return st.trace }

// RevealedPairs is the size of sigma(q) observed so far — of the whole
// query once the stream is exhausted.
func (st *JoinStream) RevealedPairs() int { return st.revealed }

// Drain pulls the stream to exhaustion and returns the accumulated rows
// with the recorded trace, for callers that want the whole result at
// once; servers streaming results to clients call Next themselves.
func (st *JoinStream) Drain() ([]JoinedRow, *QueryTrace, error) {
	var result []JoinedRow
	for {
		rows, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		result = append(result, rows...)
	}
	return result, st.Trace(), nil
}

// ObservedLeakage returns how many traces this process has recorded and
// the closure of everything revealed — by Corollary 5.2.2 all a
// semi-honest server can derive from the whole series.
func (s *Server) ObservedLeakage() (queries int, closure leakage.PairSet) {
	s.traceMu.Lock()
	classes := s.ledger.Classes()
	s.traceMu.Unlock() // expanding classes into pairs is quadratic: not under the lock
	return int(s.queries.Load()), leakage.Expand(classes)
}
