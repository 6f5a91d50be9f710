// Package client implements the data-owner side of the
// database-as-a-service model: it holds the Secure Join master key and
// the payload AEAD key, encrypts tables before upload, issues per-query
// tokens and decrypts result payloads. The server never receives any key
// material.
//
// A Client speaks the wire v5 protocol and is safe for concurrent use:
// requests carry unique IDs, responses are demultiplexed by a reader
// goroutine, and concurrent Join/Upload/Ping calls from multiple
// goroutines pipeline over the single connection. A Client is one
// connection's transport; plans run over a Cluster of Clients, one per
// server (a single server is the one-shard Cluster): sql.Execute over
// Cluster.Runner, each step's results consumed through a JoinStream
// per shard as the servers stream batches.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/sse"
	"repro/internal/wire"
)

// ErrClosed is returned by calls on a client whose connection has been
// closed.
var ErrClosed = errors.New("client: connection closed")

// ErrOverloaded is wrapped by errors of requests the server shed under
// admission control (wire.CodeOverloaded): no work ran, and retrying
// after a backoff is safe — see WithRetry. Test with errors.Is.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrIdleClosed is wrapped by errors of calls that failed because the
// server closed the connection for idling past its idle timeout
// (wire.CodeIdleTimeout). The client must re-dial to continue.
var ErrIdleClosed = errors.New("client: connection closed by server idle timeout")

// frameErr maps a terminal error frame to a client error, threading
// the wire code into a typed, errors.Is-testable error.
func frameErr(op string, f *wire.Frame) error {
	switch f.Code {
	case wire.CodeOverloaded:
		return fmt.Errorf("%w: %s rejected: %s", ErrOverloaded, op, f.Err)
	case wire.CodeUnknownJob:
		return fmt.Errorf("%w: %s rejected: %s", ErrUnknownJob, op, f.Err)
	default:
		return fmt.Errorf("client: %s rejected: %s", op, f.Err)
	}
}

// pending is one in-flight request's response queue. The reader
// goroutine pushes every frame carrying the request's ID and closes
// the queue after the terminal frame, or when the connection dies.
// The queue is unbounded so a stream consumed later than its neighbors
// never blocks the demultiplexer (and so can never deadlock a caller
// that drains two concurrent streams sequentially); its memory is
// bounded by the results the caller asked for but has not yet read.
type pending struct {
	id uint64

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*wire.Frame
	closed bool
}

func newPending() *pending {
	p := &pending{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// push enqueues one frame for the consumer.
func (p *pending) push(f *wire.Frame) {
	p.mu.Lock()
	p.queue = append(p.queue, f)
	p.mu.Unlock()
	p.cond.Signal()
}

// closeQ marks the queue complete; pop drains what is buffered, then
// returns nil.
func (p *pending) closeQ() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// pop blocks for the next frame; nil means the queue is closed (after
// the terminal frame, or because the connection died before it).
func (p *pending) pop() *wire.Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.queue) == 0 {
		return nil
	}
	f := p.queue[0]
	p.queue = p.queue[1:]
	return f
}

// Client is a connected protocol client.
type Client struct {
	conn net.Conn
	wc   *wire.Conn
	keys *engine.Client

	writeMu sync.Mutex // serializes frames of concurrent senders

	mu      sync.Mutex // guards the demux state below
	nextID  uint64
	calls   map[uint64]*pending
	readErr error // terminal receive error; set once
}

// Dial connects to a server and provisions fresh key material for the
// given scheme parameters.
func Dial(addr string, params securejoin.Params) (*Client, error) {
	keys, err := engine.NewClient(params, nil)
	if err != nil {
		return nil, err
	}
	return DialWithKeys(addr, keys)
}

// DialWithKeys connects to a server reusing existing key material —
// e.g. keys restored with engine.LoadClientKeys from an earlier
// session, so previously uploaded tables stay queryable.
func DialWithKeys(addr string, keys *engine.Client) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	wc := wire.NewConn(conn)
	if err := wire.ClientHandshake(wc); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		conn:  conn,
		wc:    wc,
		keys:  keys,
		calls: make(map[uint64]*pending),
	}
	go c.readLoop()
	return c, nil
}

// Keys returns the client's key material, e.g. for ExportKeys.
func (c *Client) Keys() *engine.Client { return c.keys }

// Close terminates the connection. In-flight calls fail with ErrClosed.
func (c *Client) Close() error { return c.conn.Close() }

// readLoop demultiplexes response frames to in-flight requests by ID.
// Every pending queue is unbounded, so the loop never blocks on a slow
// consumer and frames of interleaved streams cannot head-of-line block
// each other.
func (c *Client) readLoop() {
	for {
		f := new(wire.Frame)
		if err := c.wc.Recv(f); err != nil {
			c.fail(err)
			return
		}
		// ID 0 is a connection-level notice (never a response: request
		// IDs start at 1): the server announces why it is about to close
		// the connection, so in-flight and future calls fail typed
		// instead of with a bare EOF.
		if f.ID == 0 {
			if f.Code == wire.CodeIdleTimeout {
				c.fail(ErrIdleClosed)
			} else {
				c.fail(fmt.Errorf("connection closed by server: %s (%s)", f.Err, f.Code))
			}
			return
		}
		c.mu.Lock()
		p := c.calls[f.ID]
		if f.Terminal() {
			delete(c.calls, f.ID)
		}
		c.mu.Unlock()
		if p == nil {
			continue // response to an abandoned request
		}
		p.push(f)
		if f.Terminal() {
			p.closeQ()
		}
	}
}

// fail delivers a terminal receive error to every in-flight call by
// closing its queue.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	calls := c.calls
	c.calls = make(map[uint64]*pending)
	c.mu.Unlock()
	for _, p := range calls {
		p.closeQ()
	}
}

// connErr renders the terminal connection error of a dead client.
func (c *Client) connErr() error {
	c.mu.Lock()
	err := c.readErr
	c.mu.Unlock()
	if err == nil || err == io.EOF || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	if errors.Is(err, ErrIdleClosed) {
		return err
	}
	return fmt.Errorf("client: receive: %w", err)
}

// send registers a pending call, stamps the request with a fresh ID and
// writes it.
func (c *Client) send(req *wire.Request) (*pending, error) {
	p := newPending()
	c.mu.Lock()
	if c.readErr != nil {
		c.mu.Unlock()
		return nil, c.connErr()
	}
	c.nextID++
	id := c.nextID
	req.ID = id
	p.id = id
	c.calls[id] = p
	c.mu.Unlock()

	c.writeMu.Lock()
	err := c.wc.Send(req)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("client: send: %w", err)
	}
	return p, nil
}

// roundTrip sends req and waits for its single terminal frame: an
// error frame becomes a typed client error, and a frame that valid
// rejects an unexpected-frame error.
func (c *Client) roundTrip(req *wire.Request, op string, valid func(*wire.Frame) bool) (*wire.Frame, error) {
	p, err := c.send(req)
	if err != nil {
		return nil, err
	}
	f := p.pop()
	if f == nil {
		return nil, c.connErr()
	}
	if f.Err != "" {
		return nil, frameErr(op, f)
	}
	if !valid(f) {
		return nil, fmt.Errorf("client: unexpected %s response frame", op)
	}
	return f, nil
}

// isOk accepts a plain Ok ack.
func isOk(f *wire.Frame) bool { return f.Ok }

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.Health()
	return err
}

// Health round-trips a Ping and returns the server's health report:
// readiness plus key gauges (connections, in-flight joins, shed count,
// leakage total, uptime). Servers predating the health field ack pings
// without one; Health then returns nil with no error.
func (c *Client) Health() (*wire.HealthInfo, error) {
	f, err := c.roundTrip(&wire.Request{Ping: true}, "ping", isOk)
	if err != nil {
		return nil, err
	}
	return f.Health, nil
}

// TableInfo summarizes one server-side table: its name, row count,
// SSE-index presence, shard annotations and distinct-join-value count,
// as the server's Describe answer carries them (see wire.TableInfo).
type TableInfo = wire.TableInfo

// DescribeTables lists the tables the server currently stores, sorted
// by name. SyncCatalog feeds it to a catalog's statistics
// (sql.Catalog.SetStats and SetNDV) so the planner picks prefiltered
// plans against indexed tables automatically.
func (c *Client) DescribeTables() ([]TableInfo, error) {
	f, err := c.roundTrip(&wire.Request{Describe: true}, "describe", func(f *wire.Frame) bool { return f.Tables != nil })
	if err != nil {
		return nil, err
	}
	return f.Tables.Tables, nil
}

// SyncCatalog refreshes a catalog's execution statistics — row counts
// and SSE-index state — from the live server and returns the
// descriptions. The planner consults both: row counts drive join
// ordering and the prefilter selectivity threshold, the index bit the
// prefilter fast path. Tables the catalog does not know are ignored;
// catalog tables the server does not hold are marked unindexed with an
// unknown row count, so a stale catalog cannot make the planner emit a
// prefiltered plan the server would full-scan anyway.
func (c *Client) SyncCatalog(cat *sql.Catalog) ([]TableInfo, error) {
	return syncCatalog(cat, c.DescribeTables)
}

// syncCatalog applies one described table state to a catalog: the
// sync loop behind Client.SyncCatalog and Cluster.SyncCatalog.
func syncCatalog(cat *sql.Catalog, describe func() ([]TableInfo, error)) ([]TableInfo, error) {
	tables, err := describe()
	if err != nil {
		return nil, err
	}
	stats := make(map[string]TableInfo, len(tables))
	for _, t := range tables {
		stats[t.Name] = t
	}
	for _, name := range cat.TableNames() {
		t := stats[name] // zero value: unknown rows, no index
		_ = cat.SetStats(name, t.Rows, t.Indexed)
		_ = cat.SetNDV(name, t.NDV)
	}
	return tables, nil
}

// Upload encrypts a plaintext table and stores it on the server under
// the given name. Tables whose encoding exceeds the protocol's frame
// budget are sent as a staged chunk sequence the server installs
// atomically on the final (Commit) chunk, so upload size is unbounded
// and joins never see a partial table; do not upload the same table
// name concurrently. It runs as the one-shard Cluster over c.
func (c *Client) Upload(name string, rows []engine.PlainRow) error {
	return newCluster(c.keys, []*Client{c}).Upload(name, rows)
}

// UploadIndexed encrypts a table like Upload and additionally builds
// and uploads its SSE pre-filter index, so the planner can choose
// prefiltered joins against it. The index reveals
// nothing at rest; searching it discloses which rows match each
// individual attribute predicate — see the Section 4.3 trade-off in
// internal/engine/prefilter.go.
func (c *Client) UploadIndexed(name string, rows []engine.PlainRow) error {
	return newCluster(c.keys, []*Client{c}).UploadIndexed(name, rows)
}

// uploadTable ships an encrypted table as its staged chunk sequence
// (engine.UploadChunks), one acked request per chunk.
func (c *Client) uploadTable(table *engine.EncryptedTable) error {
	chunks, err := engine.UploadChunks(table)
	if err != nil {
		return err
	}
	for _, up := range chunks {
		if _, err := c.roundTrip(&wire.Request{Upload: up}, "upload", isOk); err != nil {
			return err
		}
	}
	return nil
}

// JoinResult is one decrypted joined row pair.
type JoinResult struct {
	RowA, RowB         int
	PayloadA, PayloadB []byte
}

// JoinStream consumes one join query's results batch by batch as the
// server streams them. Drain it until Next returns io.EOF, or release
// it with Close so the server stops producing; an unreleased stream
// merely buffers its remaining frames client-side.
type JoinStream struct {
	c        *Client
	p        *pending
	revealed int
	done     bool
	err      error
}

// Next returns the next batch of decrypted results. It returns io.EOF
// after the final batch, at which point RevealedPairs is valid.
func (s *JoinStream) Next() ([]JoinResult, error) {
	if s.done {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	f := s.p.pop()
	if f == nil {
		s.done = true
		s.err = s.c.connErr()
		return nil, s.err
	}
	switch {
	case f.Err != "":
		s.done = true
		s.err = frameErr("join", f)
		return nil, s.err
	case f.Summary != nil:
		s.done = true
		s.revealed = f.Summary.RevealedPairs
		return nil, io.EOF
	case f.Batch != nil:
		// The payloads alias the frame buffer Recv allocated for this
		// frame alone, so they are opened in place.
		out := make([]JoinResult, len(f.Batch.Rows))
		for i := range f.Batch.Rows {
			r := &f.Batch.Rows[i]
			pa, pb, err := s.c.keys.OpenRowInPlace(r)
			if err != nil {
				s.err = fmt.Errorf("client: opening result %d: %w", i, err)
				s.abort()
				return nil, s.err
			}
			out[i] = JoinResult{RowA: r.RowA, RowB: r.RowB, PayloadA: pa, PayloadB: pb}
		}
		return out, nil
	default:
		s.err = errors.New("client: malformed join frame")
		s.abort()
		return nil, s.err
	}
}

// RevealedPairs is the size of the query's leakage trace sigma(q),
// valid once Next has returned io.EOF.
func (s *JoinStream) RevealedPairs() int { return s.revealed }

// drain pulls the stream to exhaustion: every decrypted result and the
// revealed-pair count — the shared tail of JoinWith and WaitJob.
func (s *JoinStream) drain() ([]JoinResult, int, error) {
	var out []JoinResult
	for {
		batch, err := s.Next()
		if err == io.EOF {
			return out, s.revealed, nil
		}
		if err != nil {
			return nil, 0, err
		}
		out = append(out, batch...)
	}
}

// Close releases a stream that will not be drained: the server is told
// to cancel the query's remaining work, and the frames already in
// flight are discarded in the background so pipelined requests keep
// flowing.
func (s *JoinStream) Close() error {
	if !s.done {
		s.abort()
	}
	return nil
}

// abort marks the stream terminal (preserving any error already set),
// asks the server to stop, and drains the remaining frames.
func (s *JoinStream) abort() {
	s.done = true
	if s.err == nil {
		s.err = errors.New("client: join stream closed")
	}
	// Fire-and-forget cancel: its ack is cleaned up by the demux, and
	// a cancel racing the stream's natural end is ignored server-side.
	// Remaining frames just sit in the (unbounded) queue until the
	// terminal frame closes it and the queue is dropped.
	go s.c.send(&wire.Request{Cancel: s.p.id})
}

// JoinOpts tunes how the server executes one join query.
type JoinOpts struct {
	// Prefilter asks the server to resolve the selection predicates
	// through the tables' SSE indexes first, paying SJ.Dec pairings
	// only for candidate rows (the Section 4.3 fast path). Both tables
	// must have been uploaded with UploadIndexed; a table without an
	// index falls back to a full scan. The speedup costs extra SSE
	// access-pattern leakage: the server additionally learns which
	// rows match each individual attribute predicate.
	Prefilter bool
	// Workers hints how many SJ.Dec workers the server should spread
	// this query's pairings over; 0 keeps the server default, and the
	// server clamps the hint to its core count.
	Workers int
}

// adHocReq compiles an ad-hoc join — two selections plus options — into
// its wire request: an engine.JoinSpec under a fresh query key (so
// repeated identical calls are unlinkable at the server), shipped
// through joinReqFromSpec like every plan step.
func adHocReq(keys *engine.Client, tableA, tableB string, selA, selB securejoin.Selection, opts JoinOpts) (*wire.JoinRequest, error) {
	spec := engine.JoinSpec{Workers: opts.Workers}
	var err error
	if opts.Prefilter {
		spec.Prefilter, err = keys.NewPrefilterQuery(selA, selB)
	} else {
		spec.Query, err = keys.NewQuery(selA, selB)
	}
	if err != nil {
		return nil, err
	}
	return joinReqFromSpec(tableA, tableB, spec)
}

// joinReqFromSpec marshals one compiled engine.JoinSpec into the wire
// request it describes — the one request builder, behind ad-hoc joins
// and plan steps, synchronous and submitted, single-server and sharded.
func joinReqFromSpec(tableA, tableB string, spec engine.JoinSpec) (*wire.JoinRequest, error) {
	req := &wire.JoinRequest{
		TableA: tableA, TableB: tableB, Workers: spec.Workers,
		// Semi-join candidate lists and key-only projection flags ship
		// verbatim.
		CandidatesA: spec.CandidatesA, CandidatesB: spec.CandidatesB,
		SkipPayloadA: spec.SkipPayloadA, SkipPayloadB: spec.SkipPayloadB,
	}
	q := spec.Query
	var err error
	if spec.Prefilter != nil {
		q = spec.Prefilter.Join
		if len(spec.Prefilter.TokensA) > 0 {
			if req.PrefilterA, err = sse.MarshalTokenMap(spec.Prefilter.TokensA); err != nil {
				return nil, err
			}
		}
		if len(spec.Prefilter.TokensB) > 0 {
			if req.PrefilterB, err = sse.MarshalTokenMap(spec.Prefilter.TokensB); err != nil {
				return nil, err
			}
		}
	}
	if req.TokenA, err = q.TokenA.MarshalBinary(); err != nil {
		return nil, err
	}
	if req.TokenB, err = q.TokenB.MarshalBinary(); err != nil {
		return nil, err
	}
	return req, nil
}

// open ships one join request as a Join and returns the stream the
// server answers it with.
func (c *Client) open(req *wire.JoinRequest) (*JoinStream, error) {
	p, err := c.send(&wire.Request{Join: req})
	if err != nil {
		return nil, err
	}
	return &JoinStream{c: c, p: p}, nil
}

// ExecutePlan runs a compiled SQL plan of any arity against the live
// server: each pairwise encrypted join step ships as its own
// JoinRequest, and the decrypted intermediates are stitched client-side
// on the shared table's row identity (sql.Execute). emit receives every
// stitched result row; the returned count sums the revealed pairs over
// all executed steps. It runs as the one-shard Cluster over c.
func (c *Client) ExecutePlan(p *sql.Plan, emit func(sql.ResultRow) error) (int, error) {
	return newCluster(c.keys, []*Client{c}).ExecutePlan(p, emit)
}

// JoinWith executes SELECT * FROM tableA JOIN tableB ON joinA = joinB
// WHERE selA AND selB and drains its stream, returning all decrypted
// results and the revealed-pair count.
func (c *Client) JoinWith(tableA, tableB string, selA, selB securejoin.Selection, opts JoinOpts) ([]JoinResult, int, error) {
	req, err := adHocReq(c.keys, tableA, tableB, selA, selB, opts)
	if err != nil {
		return nil, 0, err
	}
	stream, err := c.open(req)
	if err != nil {
		return nil, 0, err
	}
	return stream.drain()
}
