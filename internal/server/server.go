// Package server implements the DBMS-provider side of the
// database-as-a-service model over TCP, speaking the wire v5 protocol:
// a version handshake followed by length-prefixed frames. A
// connection's read loop answers cheap requests and admits join work,
// keyed by the client-chosen request ID, so clients can pipeline
// uploads and joins; join results are streamed back as bounded
// JoinBatch frames — interleaved with the frames of other in-flight
// requests — and terminated by a summary frame. The server never sees
// key material: it executes SJ.Dec and the hash-based SJ.Match over
// opaque ciphertexts and returns sealed payloads.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/securejoin"
	"repro/internal/sse"
	"repro/internal/store"
	"repro/internal/wire"
)

// closeGrace bounds how long Close waits for in-flight requests to
// finish writing before force-closing their connections — without it a
// peer that stops reading could block a handler's write, and Close's
// WaitGroup, forever.
var closeGrace = 30 * time.Second

// Server is a TCP front end over an engine.Server.
type Server struct {
	eng    *engine.Server
	logger *log.Logger
	batch  int // joined rows per response frame (in-package tests lower it before Listen)
	store  *store.Store

	// Observability and admission control (see observe.go). The
	// registry holds the engine's, the store's and the wire layer's
	// metrics together. maxJoinsPerConn caps one connection's joins in
	// flight (maxInFlight; in-package tests lower it before Listen).
	reg             *metrics.Registry
	met             serverMetrics
	started         time.Time
	maxJoinsPerConn int
	idleTimeout     atomic.Int64 // nanoseconds; 0 = no idle timeout
	http            *http.Server // optional /metrics + /healthz endpoint

	// Async job subsystem (see jobs.go): the job table, the bounded
	// worker pool executing ALL join work (sync and submitted), and its
	// FIFO task queue of jobQueueDepth slots (defaultJobQueueDepth; 0 is
	// a rendezvous queue). Pool sizing is configured before Serve.
	jobMu         sync.Mutex
	jobs          map[string]*job
	jobWorkers    int
	jobQueueDepth int
	jobTTL        time.Duration
	taskQueue     chan joinTask
	poolOnce      sync.Once

	done      chan struct{}
	closeOnce sync.Once
	ln        net.Listener

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup // accept loop + live connections + join workers
}

// New returns a server with an empty in-memory table store. logger may
// be nil to disable logging.
func New(logger *log.Logger) *Server {
	return NewWithStore(logger, nil)
}

// NewWithStore returns a server backed by a durable table store: every
// table the store recovered is re-registered (with its SSE index) and
// the persisted leakage ledger is replayed, then uploads committed
// over the wire persist through the store before they are acked. st may
// be nil for the in-memory behavior of New. The server owns the store
// from here on: Close closes it.
func NewWithStore(logger *log.Logger, st *store.Store) *Server {
	reg := metrics.NewRegistry()
	s := &Server{
		eng:             engine.NewServer(),
		logger:          logger,
		batch:           engine.DefaultBatchSize,
		store:           st,
		reg:             reg,
		met:             newServerMetrics(reg),
		started:         time.Now(),
		maxJoinsPerConn: maxInFlight,
		jobQueueDepth:   defaultJobQueueDepth,
		jobTTL:          defaultJobTTL,
		jobs:            make(map[string]*job),
		done:            make(chan struct{}),
		conns:           make(map[net.Conn]struct{}),
	}
	// Instrument the engine before the recovery below so the replayed
	// ledger lands in the sj_revealed_pairs gauges too.
	s.eng.Instrument(reg)
	if st != nil {
		st.Instrument(reg)
		tables := st.Tables()
		for _, t := range tables {
			// Upload, not RegisterTable: these versions are already
			// durable, re-persisting them would only churn the manifest.
			s.eng.Upload(t)
			s.logf("recovered table %q (%d rows, indexed=%v)", t.Name, len(t.Rows), t.Index != nil)
		}
		s.eng.AddLeakage(st.Ledger())
		s.eng.SetStore(st)
		s.recoverJobs(st)
		s.logf("store %s: %d tables recovered, %d damaged", st.Dir(), len(tables), len(st.Damaged()))
	}
	return s
}

// SetDecryptCache does nothing. The server keeps no decrypt results:
// each query carries fresh tokens, so a cache of D values could hit
// only on a re-sent token, and no client re-sends one.
// The method stays only because the benchmark harness still calls it
// (env.serve in benchmark/workloads.go passes decryptCacheBytes); it
// goes when that call does.
func (s *Server) SetDecryptCache(int64) {}

// Engine exposes the underlying engine, e.g. for leakage audits in
// tests and examples.
func (s *Server) Engine() *engine.Server { return s.eng }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines
// until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting on a caller-provided listener; it returns
// immediately, serving on background goroutines until Close. The first
// call also starts the join worker pool and the job TTL reaper, so the
// pool-sizing setters must run before it.
func (s *Server) Serve(ln net.Listener) {
	s.startJobPool()
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// Close stops the listener, lets in-flight requests finish writing
// their responses, and waits for all connection goroutines to exit.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		if s.ln != nil {
			err = s.ln.Close()
		}
		if s.http != nil {
			s.http.Close()
		}
		// Half-close live connections: the read side unblocks the
		// request reader, while the write side stays open so in-flight
		// requests can still deliver their terminal frames.
		s.connMu.Lock()
		for c := range s.conns {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.CloseRead()
			} else {
				c.Close()
			}
		}
		s.connMu.Unlock()
		// If a peer stops reading, its handler's write never finishes;
		// after the grace period force-close whatever is left so Wait
		// cannot hang forever.
		force := time.AfterFunc(closeGrace, func() {
			s.connMu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
		})
		// The workers exit on done without draining the queue, but a
		// session may be blocked in reqs.Wait on a queued sync join (and
		// job waiters on queued jobs) — drain and fail those tasks until
		// every connection and worker has finished, then whatever is
		// left, and only then close the store their failures reach.
		var drainStop, drained chan struct{}
		if s.taskQueue != nil {
			drainStop, drained = make(chan struct{}), make(chan struct{})
			go s.drainTasks(drainStop, drained)
		}
		s.wg.Wait()
		if drainStop != nil {
			close(drainStop)
			<-drained
		}
		force.Stop()
		// With no request left in flight the manifest is quiescent;
		// release it so a successor process can recover the directory.
		if s.store != nil {
			if cerr := s.store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// acceptLoop accepts until the listener closes. Transient Accept
// errors (e.g. EMFILE) back off exponentially instead of killing the
// listener.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	const maxBackoff = time.Second
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("accept error (retrying in %v): %v", backoff, err)
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 5 * time.Millisecond
		if !s.track(conn) {
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// track registers a connection for Close's shutdown sweep. A
// connection accepted concurrently with Close (after the sweep already
// ran) is closed immediately instead of escaping it.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.done:
		conn.Close()
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	s.met.ConnsTotal.Inc()
	s.met.ActiveConns.Inc()
	return true
}

// maxInFlight caps one connection's join work in flight — sync joins
// and attaches; joins cost thousands of pairings each, so an unbounded
// pipeline would let one client occupy arbitrary CPU and memory. Past
// the cap, join work is shed (see observe.go).
const maxInFlight = 32

// session is the per-connection state: the framed conn, a write lock
// serializing frames of concurrently executing requests, a wait group
// tracking those requests, the staging area of chunked uploads, and the
// cancellation channels of in-flight joins.
type session struct {
	srv     *Server
	conn    *wire.Conn
	writeMu sync.Mutex
	reqs    sync.WaitGroup
	joins   atomic.Int64 // sync joins and attaches in flight, for the per-connection cap (see observe.go)

	// closed is closed when the connection's read loop exits — the
	// client is gone — so blocking handlers (AttachJob waiting on a
	// running job) stop waiting for someone who will never read the
	// answer.
	closed chan struct{}

	// staging is touched only by the connection's read loop (uploads
	// run inline there for ordering), so it needs no lock.
	staging map[string][]*engine.EncryptedRow

	cancelMu sync.Mutex
	cancels  map[uint64]chan struct{}
}

// registerCancel creates the cancellation channel for a request. It
// runs on the read loop before the request is dispatched, so a Cancel
// arriving later on the same connection always finds it.
func (ss *session) registerCancel(id uint64) {
	ss.cancelMu.Lock()
	ss.cancels[id] = make(chan struct{})
	ss.cancelMu.Unlock()
}

// cancel closes a request's cancellation channel if the request is
// still in flight; cancels for finished or unknown IDs are ignored.
func (ss *session) cancel(id uint64) {
	ss.cancelMu.Lock()
	if ch, ok := ss.cancels[id]; ok {
		select {
		case <-ch: // already cancelled
		default:
			close(ch)
		}
	}
	ss.cancelMu.Unlock()
}

// cancelled returns the request's cancellation channel (nil for
// requests that never registered one).
func (ss *session) cancelled(id uint64) <-chan struct{} {
	ss.cancelMu.Lock()
	defer ss.cancelMu.Unlock()
	return ss.cancels[id]
}

// clearCancel removes a finished request's cancellation channel.
func (ss *session) clearCancel(id uint64) {
	ss.cancelMu.Lock()
	delete(ss.cancels, id)
	ss.cancelMu.Unlock()
}

func (ss *session) send(f *wire.Frame) error {
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	if err := ss.conn.Send(f); err != nil {
		return err
	}
	ss.srv.met.FramesOut.Inc()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
		s.met.ActiveConns.Dec()
	}()

	wc := wire.NewConn(conn)
	if err := wire.ServerHandshake(wc); err != nil {
		s.logf("handshake with %s: %v", conn.RemoteAddr(), err)
		return
	}
	ss := &session{
		srv:     s,
		conn:    wc,
		closed:  make(chan struct{}),
		staging: make(map[string][]*engine.EncryptedRow),
		cancels: make(map[uint64]chan struct{}),
	}
	for {
		// With an idle timeout configured, every blocking read carries a
		// deadline. Expiry while requests are still executing is not
		// idleness (the client is waiting on us, not the reverse) — the
		// loop just re-arms and keeps reading.
		idle := time.Duration(s.idleTimeout.Load())
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		var req wire.Request
		if err := wc.Recv(&req); err != nil {
			if idle > 0 && errors.Is(err, os.ErrDeadlineExceeded) {
				// Every request but a sync join or an attach is answered
				// on this loop, so those two are all the work in flight.
				if ss.joins.Load() > 0 {
					continue
				}
				// Typed close notice (ID 0 = connection-level, see wire)
				// so the client reports ErrIdleClosed, not a bare EOF.
				s.met.IdleClosed.Inc()
				s.logf("closing idle connection %s after %v", conn.RemoteAddr(), idle)
				ss.send(&wire.Frame{Code: wire.CodeIdleTimeout, Err: "connection idle timeout exceeded"})
				break
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("read from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		s.met.FramesIn.Inc()
		ss.handle(&req)
	}
	// Unblock handlers waiting on behalf of this client (job attaches):
	// the peer is gone, so there is no one left to stream to.
	close(ss.closed)
	// The read loop is the only producer of staged upload chunks, so
	// once it exits no Commit can arrive: drop any half-finished
	// sequence now instead of pinning its rows while pipelined joins
	// drain below. Nothing of it was ever durable — the store is only
	// written on Commit.
	clear(ss.staging)
	// Let pipelined requests finish writing before the conn closes.
	ss.reqs.Wait()
}

// handle answers one request on the read loop, which orders an
// upload's chunks and bounds any flood by TCP backpressure. Answers are
// cheap (a cancel must not queue behind the joins it cancels); join
// work is only admitted here.
func (ss *session) handle(req *wire.Request) {
	var err error
	started := time.Now()
	kind := ""
	switch {
	case req.Cancel != 0:
		kind = "cancel"
		ss.cancel(req.Cancel)
		err = ss.send(&wire.Frame{ID: req.ID, Ok: true})
	case req.Upload != nil:
		kind = "upload"
		err = ss.handleUpload(req.ID, req.Upload)
	case req.Join != nil || req.Submit != nil || req.Attach != "":
		kind, err = ss.admitJoin(req)
	case req.JobStatus != "":
		kind = "jobstatus"
		if j := ss.srv.lookupJob(req.JobStatus); j != nil {
			err = ss.send(&wire.Frame{ID: req.ID, Job: j.snapshot()})
		} else {
			err = ss.sendUnknownJob(req.ID, req.JobStatus)
		}
	case req.Describe:
		// The catalog a client-side SQL planner syncs: the stored
		// tables' names, row counts and SSE-index presence.
		kind = "describe"
		err = ss.send(&wire.Frame{ID: req.ID, Tables: &wire.TableList{Tables: ss.srv.eng.TableStats()}})
	case req.Ping:
		// The ack doubles as the protocol's health probe: readiness and
		// key gauges ride the Ok frame.
		kind = "ping"
		err = ss.send(&wire.Frame{ID: req.ID, Ok: true, Health: ss.srv.health()})
	default:
		err = ss.sendErr(req.ID, errors.New("server: empty request"))
	}
	if kind != "" {
		ss.srv.met.ReqSeconds.With(kind).Observe(time.Since(started).Seconds())
	}
	if err != nil {
		ss.srv.logf("request %d: writing response: %v", req.ID, err)
	}
}

func (ss *session) sendErr(id uint64, err error) error {
	return ss.send(&wire.Frame{ID: id, Err: err.Error()})
}

// clampWorkers bounds a client's SJ.Dec worker hint: the hint cannot
// commandeer more goroutines than the server has cores, and 0 (or a
// negative value, including from clients that predate the field) keeps
// the engine default.
func clampWorkers(hint int) int {
	if hint < 0 {
		return 0
	}
	if max := runtime.GOMAXPROCS(0); hint > max {
		return max
	}
	return hint
}

// handleUpload stages each chunk of an upload sequence and installs
// the table atomically on the Commit chunk, so a sequence that fails
// or is abandoned mid-way never leaves a truncated table visible.
func (ss *session) handleUpload(id uint64, up *wire.UploadRequest) error {
	rows, err := engine.DecodeUploadRows(up.Rows)
	if err != nil {
		// A failed chunk aborts the sequence; free whatever it staged
		// instead of pinning it for the connection's life.
		delete(ss.staging, up.Table)
		return ss.sendErr(id, err)
	}
	if !up.Append {
		// First chunk of a sequence discards any stale staging left by
		// an earlier abandoned upload of the same table.
		delete(ss.staging, up.Table)
	}
	staged := append(ss.staging[up.Table], rows...)
	if !up.Commit {
		ss.staging[up.Table] = staged
		ss.srv.logf("staged %d rows for table %q", len(rows), up.Table)
		return ss.send(&wire.Frame{ID: id, Ok: true})
	}
	delete(ss.staging, up.Table)
	// The shard annotations of a cluster upload ride the Commit chunk's
	// metadata into the engine (and, via SaveTable, the store): the
	// server stores and joins a shard exactly like a whole table, but
	// Describe echoes the annotations so clients can verify which
	// partition this backend holds.
	table, err := engine.CommitUpload(up, staged)
	if err != nil {
		return ss.sendErr(id, err)
	}
	// Persist (when a store is attached) before the ack below: a client
	// that saw Ok on its Commit chunk must find the table after a
	// server restart.
	if err := ss.srv.eng.RegisterTable(table); err != nil {
		return ss.sendErr(id, err)
	}
	if up.ShardCount > 0 {
		ss.srv.logf("uploaded table %q shard %d/%d (%d rows, indexed=%v)", up.Table, up.Shard, up.ShardCount, len(staged), table.Index != nil)
	} else {
		ss.srv.logf("uploaded table %q (%d rows, indexed=%v)", up.Table, len(staged), table.Index != nil)
	}
	return ss.send(&wire.Frame{ID: id, Ok: true})
}

// joinSpecFrom parses a wire join request — tokens and optional SSE
// prefilters — into the engine spec it describes. Only runTask calls
// it, on the worker running an admitted task, so a shed request costs
// no decode.
func (s *Server) joinSpecFrom(jr *wire.JoinRequest) (engine.JoinSpec, error) {
	ta, tb, err := s.eng.Tables(jr.TableA, jr.TableB)
	if err != nil {
		return engine.JoinSpec{}, err
	}
	// The two tokens decode at once, once both element counts are read:
	// each is Dim square roots and G2 membership tests. A's error wins
	// when both are bad.
	q := &securejoin.Query{}
	na, errA := securejoin.TokenDim(jr.TokenA)
	nb, errB := securejoin.TokenDim(jr.TokenB)
	if errA == nil && errB == nil {
		decodedB := make(chan error, 1)
		go func() { decodedB <- parseToken(&q.TokenB, jr.TokenB, nb, tb, na) }()
		errA = parseToken(&q.TokenA, jr.TokenA, na, ta, nb)
		errB = <-decodedB
	}
	if errA != nil {
		return engine.JoinSpec{}, fmt.Errorf("token A: %w", errA)
	}
	if errB != nil {
		return engine.JoinSpec{}, fmt.Errorf("token B: %w", errB)
	}

	spec := engine.JoinSpec{
		Query: q, Batch: s.batch, Workers: clampWorkers(jr.Workers),
		// Semi-join candidate lists and key-only projection flags pass
		// straight through; the engine intersects candidates with any
		// prefilter and drops out-of-range ids defensively.
		CandidatesA: jr.CandidatesA, CandidatesB: jr.CandidatesB,
		SkipPayloadA: jr.SkipPayloadA, SkipPayloadB: jr.SkipPayloadB,
	}
	if len(jr.PrefilterA) > 0 || len(jr.PrefilterB) > 0 {
		pf := &engine.PrefilterQuery{Join: q}
		if len(jr.PrefilterA) > 0 {
			toks, err := sse.UnmarshalTokenMap(jr.PrefilterA)
			if err != nil {
				return engine.JoinSpec{}, fmt.Errorf("prefilter A: %w", err)
			}
			pf.TokensA = toks
		}
		if len(jr.PrefilterB) > 0 {
			toks, err := sse.UnmarshalTokenMap(jr.PrefilterB)
			if err != nil {
				return engine.JoinSpec{}, fmt.Errorf("prefilter B: %w", err)
			}
			pf.TokensB = toks
		}
		spec.Prefilter = pf
	}
	return spec, nil
}

// parseToken decodes the n-element token for table t into *tk once n
// is the count t takes (other is the other token's count), and only if
// t has rows: an empty table's token is counted, never decoded.
func parseToken(tk **securejoin.Token, data []byte, n int, t *engine.EncryptedTable, other int) error {
	if d := t.TokenDim(other); n != d {
		return fmt.Errorf("%d elements, table %q takes %d", n, t.Name, d)
	}
	if len(t.Rows) == 0 {
		return nil
	}
	*tk = new(securejoin.Token)
	return (*tk).UnmarshalBinary(data)
}

// recordBufs holds the buffers a result stream stages its packed row
// record in — a spool read for an attach, or rows packed for a frame —
// between streams. Being a pool, it keeps none of them past two
// garbage collections on an idle server.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// sendRows streams joined rows to the client: packed into one record
// (wire.AppendRows) and cut into frames by the one split rule
// (wire.CutRows), bounded by the configured row count and the byte
// budget. The engine's batch bounds probe-side rows, but duplicate join
// keys can multiply the output (skewed keys turn 2 probe rows into
// thousands of matches), and sealed payloads can be large.
func (ss *session) sendRows(id uint64, rows []wire.JoinedRow) (int, error) {
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	*buf = wire.AppendRows((*buf)[:0], rows)
	b, err := wire.CutRows(*buf, len(rows), ss.srv.batch)
	if err != nil {
		return 0, err
	}
	return ss.sendBatches(id, &b)
}

// sendBatches writes b's frames, each under the connection's write lock
// so frames of concurrent requests interleave whole.
func (ss *session) sendBatches(id uint64, b *wire.Batches) (int, error) {
	sent := 0
	for i := range b.Frames {
		f := &b.Frames[i]
		ss.srv.met.BatchBytes.Add(uint64(f.Charge))
		ss.writeMu.Lock()
		err := ss.conn.SendBatch(id, b, i)
		ss.writeMu.Unlock()
		if err != nil {
			return sent, err
		}
		ss.srv.met.FramesOut.Inc()
		sent += f.Rows
	}
	return sent, nil
}

// joinTask is the pool task of one synchronous join: each batch streams
// to the connection as it is produced, a Cancel for the request stops
// the drain, and finish writes the terminal frame and returns the
// connection's join slot.
func (ss *session) joinTask(id uint64, jr *wire.JoinRequest) joinTask {
	s := ss.srv
	var started time.Time
	sent := 0
	return joinTask{
		jr:     jr,
		begin:  func() { started = time.Now() },
		cancel: ss.cancelled(id),
		sink: func(rows []wire.JoinedRow) error {
			n, err := ss.sendRows(id, rows)
			sent += n
			if err != nil {
				// finish still tries a terminal frame: if the conn is alive
				// (e.g. a single row overflowed the frame limit) the client
				// must get one.
				return fmt.Errorf("streaming result: %v", err)
			}
			return nil
		},
		finish: func(revealed int, err error) {
			frame := &wire.Frame{ID: id, Summary: &wire.JoinSummary{RevealedPairs: revealed}}
			if err != nil {
				frame = &wire.Frame{ID: id, Err: err.Error()}
				s.logf("join %q x %q failed after %d rows: %v", jr.TableA, jr.TableB, sent, err)
			} else {
				s.logf("join %q x %q: %d result rows, %d revealed pairs", jr.TableA, jr.TableB, sent, revealed)
			}
			// Everything the client can read back about its own join —
			// the engine's series were recorded when the stream ended —
			// is in place before the terminal frame tells it the join is
			// over. A task failed unrun at shutdown took no time.
			if !started.IsZero() {
				s.met.ReqSeconds.With("join").Observe(time.Since(started).Seconds())
			}
			if err := ss.send(frame); err != nil {
				s.logf("request %d: writing response: %v", id, err)
			}
			// The slot outlives the reply: the idle-timeout check reads it,
			// so a connection is never idle-closed mid-reply.
			ss.endJoin(id)
		},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}
