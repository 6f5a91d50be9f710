// Package wire defines the v5 client/server protocol: a versioned
// handshake followed by length-prefixed frames, each one message in the
// hand-written encoding of codec.go. Requests carry a client-chosen ID
// and may be pipelined; the server answers each ID with zero or more
// JoinBatch frames followed by exactly one terminal frame (Ok, Err or
// Summary), interleaving frames of concurrent requests on one
// connection. All cryptographic objects travel as validated binary
// encodings (see securejoin's MarshalBinary/UnmarshalBinary); payloads
// are opaque AEAD blobs. Bulk result rows travel as one packed row
// record (AppendRows/ParseRows), which the server's job spool stores
// too, so a record cut into frames (CutRows) is sent as it is stored
// (SendBatch).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Version is the protocol version spoken by this package. Version 1 was
// the unversioned blocking request/response protocol. Version 2 carried
// tokens in G1 and row ciphertexts in G2; version 3 swapped the groups,
// which changed both encodings. Version 4 carried a JoinBatch's rows as
// one packed row record inside a gob frame. Version 5 drops gob: every
// message is hand-encoded. No other version is accepted, so a peer
// speaking another one fails at the handshake rather than in a codec.
const Version = 5

// MaxFrameSize bounds a single frame's payload so a malformed or
// hostile peer cannot force an unbounded allocation.
const MaxFrameSize = 64 << 20

// FrameByteBudget is the soft cap senders use when splitting bulk data
// (upload chunks, join batches) across frames: enough headroom under
// MaxFrameSize that encoding overhead can never push a frame over the
// hard limit.
const FrameByteBudget = 16 << 20

// Typed protocol errors.
var (
	// ErrVersionMismatch is returned by the handshake when the peer
	// speaks a different protocol version.
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
	// ErrFrameTooLarge is returned when a frame header announces a
	// payload larger than MaxFrameSize (or an empty one).
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrTruncatedFrame is returned when the underlying stream ends in
	// the middle of a frame header or payload.
	ErrTruncatedFrame = errors.New("wire: truncated frame")
)

// Hello is the first message on a connection, sent by the client.
type Hello struct {
	Version uint32
}

// HelloAck answers a Hello. Err is non-empty when the server rejects
// the connection (e.g. on a version mismatch).
type HelloAck struct {
	Version uint32
	Err     string
}

// Request is the union of client messages; exactly one operation field
// is set. ID is chosen by the client and must be unique among the
// requests in flight on the connection; the server echoes it on every
// frame belonging to this request, so responses of pipelined requests
// can interleave. Cancel names the ID of an earlier in-flight request
// whose remaining work and response frames the client no longer wants;
// the cancel request itself is acked under its own ID.
//
// Describe asks the server to list its stored tables (name, row count,
// SSE-index presence) in a TableList frame — the catalog sync a SQL
// planner needs to choose prefiltered plans in client mode.
// Submit, JobStatus and Attach are the async job operations: Submit
// enqueues a join on the server's job queue and answers immediately
// with a JobInfo frame; JobStatus polls a job by ID; Attach blocks
// until the job terminates and then streams its result exactly like a
// synchronous join (Batch frames followed by a Summary). Jobs are
// server-side state, so any later connection may poll or attach.
type Request struct {
	ID        uint64
	Upload    *UploadRequest
	Join      *JoinRequest
	Ping      bool
	Cancel    uint64
	Describe  bool
	Submit    *SubmitRequest
	JobStatus string
	Attach    string
}

// SubmitRequest enqueues a join for asynchronous execution. The
// embedded JoinRequest is exactly what a synchronous Join would carry;
// the server runs it on the job worker pool, which validates it (a bad
// token fails the job), and spools the completed result durably when
// it has a store.
type SubmitRequest struct {
	Join *JoinRequest
}

// UploadRequest stores an encrypted table under a name. A table larger
// than one frame is uploaded as a sequence of requests: the first with
// Append false, the following chunks with Append true, and the last
// one (possibly the first) with Commit true. The server stages the
// chunks per connection and installs the table atomically on Commit,
// so a failed or abandoned sequence never leaves a truncated table
// visible and concurrent joins never snapshot a partial upload. Each
// request in the sequence is acked separately.
//
// Index optionally carries the table's serialized SSE pre-filter index
// (sse.Index encoding) on the Commit chunk, enabling prefiltered joins
// against the table; it is ignored on non-Commit chunks. An empty
// Index uploads the table without a pre-filter.
//
// Shard/ShardCount annotate a sharded upload: this server stores shard
// Shard (0-based) of ShardCount hash-partitions of the named table,
// partitioned client-side on the join-key attribute (see
// client.Cluster). The fields are metadata only — the server stores
// and joins the shard exactly like a whole table; (0, 0) marks a whole
// table.
//
// NDV, on the Commit chunk, carries the table's distinct-join-value
// count, computed client-side at encrypt time (only the key owner sees
// plaintext join values). It is planner metadata echoed back by
// Describe; 0 means unknown.
type UploadRequest struct {
	Table      string
	Rows       []UploadRow
	Append     bool
	Commit     bool
	Index      []byte
	Shard      int
	ShardCount int
	NDV        int
}

// UploadRow is one encrypted row: the Secure Join ciphertext and the
// sealed payload returned with join results.
type UploadRow struct {
	JoinCiphertext []byte
	Payload        []byte
}

// JoinRequest executes SELECT * FROM TableA JOIN TableB with the two
// query tokens generated by the client for this query.
//
// PrefilterA/PrefilterB optionally carry each table's serialized
// per-attribute SSE search-token lists (sse.MarshalTokenMap encoding):
// when either is non-empty the server resolves the selection predicates
// through the tables' SSE indexes first and pays SJ.Dec pairings only
// for candidate rows. Workers hints how many SJ.Dec workers the server
// should use for this query (0 picks the server default; the server
// clamps the hint to its core count). With all three zero the request
// is the plain full-scan, server-paced join.
//
// CandidatesA/B optionally restrict a side to an explicit row-id list
// — the semi-join reduction: a multi-join executor ships the hub rows
// matched by the previous plan step so SJ.Dec runs only over them,
// intersected with any SSE prefilter on the same side. A non-empty
// list is a restriction; empty means none (executors never ship an
// empty list — an empty intermediate short-circuits the plan client-
// side instead). SkipPayloadA/B ask the server to omit that side's
// sealed payloads from the result rows (key-only projection).
type JoinRequest struct {
	TableA, TableB         string
	TokenA, TokenB         []byte
	PrefilterA, PrefilterB []byte
	Workers                int
	CandidatesA            []int
	CandidatesB            []int
	SkipPayloadA           bool
	SkipPayloadB           bool
}

// Frame is one server→client message. ID echoes the request it belongs
// to. Exactly one of the remaining operation fields is set:
//
//   - Batch:   a chunk of join results; more frames follow.
//   - Summary: terminal frame of a join stream.
//   - Tables:  terminal answer to a Describe request.
//   - Ok:      terminal ack of an Upload or Ping.
//   - Err:     terminal failure of the request.
//
// Code optionally machine-types an Err frame (see the Code* constants)
// so clients can react to specific failures — retry an overloaded
// server, report an idle disconnect — without parsing error strings.
// Health optionally rides on a Ping ack, reporting server readiness
// and key gauges.
//
// A Frame with ID 0 is a connection-level notice, not the response to
// any request (clients allocate request IDs from 1): the server sends
// one, with a Code naming the reason, immediately before it closes the
// connection on its own initiative (e.g. CodeIdleTimeout).
// Job is the terminal answer to a Submit or JobStatus request.
type Frame struct {
	ID      uint64
	Err     string
	Ok      bool
	Batch   *JoinBatch
	Summary *JoinSummary
	Tables  *TableList
	Code    string
	Health  *HealthInfo
	Job     *JobInfo
}

// Frame codes. An empty Code carries no classification.
const (
	// CodeOverloaded marks a request shed by admission control: the
	// server's join-worker semaphore or the connection's in-flight join
	// cap was exhausted. The request was rejected before any pairing
	// work ran; retrying after a backoff is safe and expected.
	CodeOverloaded = "overloaded"
	// CodeIdleTimeout marks a connection-level close notice (ID 0):
	// the connection sat idle — no in-flight requests, nothing arriving
	// — longer than the server's idle timeout.
	CodeIdleTimeout = "idle-timeout"
	// CodeUnknownJob marks a JobStatus or Attach request naming a job ID
	// the server does not hold: never submitted, already reaped by TTL,
	// or lost to a restart before it completed (only completed jobs are
	// spooled durably). Retrying will not help; resubmit instead.
	CodeUnknownJob = "unknown-job"
)

// Job states reported in JobInfo.State. A job moves
// queued → running → done|failed; completed states are terminal.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobInfo is a point-in-time snapshot of one async join job. Progress
// fields (RowsDecrypted, StepsDone, RevealedPairs) tick while the job
// runs; ResultRows and Err are set on termination. Timestamps are Unix
// seconds, zero when the phase has not been reached.
type JobInfo struct {
	ID             string
	State          string
	TableA, TableB string
	// RowsDecrypted counts rows run through SJ.Dec so far (build and
	// probe sides); StepsDone counts completed pipeline steps (the build
	// phase, then one per probe batch); RevealedPairs is sigma(q) so far.
	RowsDecrypted int
	StepsDone     int
	RevealedPairs int
	// ResultRows is the number of joined rows in the completed result.
	ResultRows int
	// Err is the failure message of a failed job.
	Err          string
	CreatedUnix  int64
	StartedUnix  int64
	FinishedUnix int64
}

// HealthInfo reports server readiness and key gauges on a Ping ack —
// the liveness/readiness probe of the protocol. A plain Ok ack (Health
// nil) is a valid answer to a Ping, which clients must tolerate.
type HealthInfo struct {
	// Ready is true while the server accepts new work. It is the
	// readiness bit a load balancer should route on.
	Ready bool
	// Tables is the number of stored tables.
	Tables int
	// ActiveConns is the number of live client connections.
	ActiveConns int
	// InflightJoins is the number of joins currently executing.
	InflightJoins int
	// ShedTotal counts requests rejected by admission control since
	// start.
	ShedTotal uint64
	// RevealedPairs is the size of the server's leakage closure: every
	// equality pair derivable from all queries so far, each counted once
	// however often it was revealed.
	RevealedPairs uint64
	// UptimeSeconds is the time since the server started serving.
	UptimeSeconds float64
	// JobsQueued is the number of join tasks waiting in the job queue;
	// JobsRunning the number executing on the worker pool; JobsStored
	// the number of jobs held in the job table (any state, including
	// spooled completed results awaiting TTL reaping).
	JobsQueued  int
	JobsRunning int
	JobsStored  int
}

// Terminal reports whether this frame ends its request's response
// stream.
func (f *Frame) Terminal() bool { return f.Batch == nil }

// JoinBatch carries a bounded chunk of join results. On the wire its
// body is one packed row record (see AppendRows).
type JoinBatch struct {
	Rows []JoinedRow
}

// JoinSummary terminates a join stream. RevealedPairs is the size of
// the query's leakage trace sigma(q), reported for auditing.
type JoinSummary struct {
	RevealedPairs int
}

// JoinedRow is one matched pair with the sealed payloads of both sides.
type JoinedRow struct {
	RowA, RowB         int
	PayloadA, PayloadB []byte
}

// TableList answers a Describe request: the server's stored tables,
// sorted by name.
type TableList struct {
	Tables []TableInfo
}

// TableInfo summarizes one stored table. Indexed reports whether the
// table was uploaded with an SSE pre-filter index, which is what lets a
// client-side planner choose prefiltered joins against it.
// Shard/ShardCount echo the annotations of a sharded upload (zero for
// whole tables), so a cluster client can verify which hash-partition a
// backend holds. NDV echoes the distinct-join-value count of the upload
// (0 = unknown), feeding the planner's per-value selectivity estimate.
type TableInfo struct {
	Name       string
	Rows       int
	Indexed    bool
	Shard      int
	ShardCount int
	NDV        int
}

// recvPrealloc is the most Recv allocates for a frame's payload before
// its bytes arrive; a longer payload's buffer grows as they do, so a
// peer that announces a large frame and sends little costs little. It
// holds every frame of the benchmark's workloads.
const recvPrealloc = 1 << 20

// Conn frames messages over a byte stream: each message is a 4-byte
// big-endian payload length followed by the message's encoding (see
// codec.go). The messages are *Hello, *HelloAck, *Request and *Frame.
// Send, SendBatch and Recv are not individually goroutine-safe; callers
// serialize writers and readers separately (one writer lock, one reader
// goroutine is the intended pattern).
type Conn struct {
	r *bufio.Reader
	w io.Writer
	// head and vec are SendBatch's scratch: a frame's encoded fields and
	// the three pieces of its vectored write.
	head []byte
	vec  [3][]byte
}

// NewConn wraps rw in protocol framing.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: rw}
}

// Send writes one framed message. It refuses a message over
// MaxFrameSize or over one of the receiver's field caps.
func (c *Conn) Send(v any) error {
	b, err := marshal(v)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(b); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// SendBatch writes frame i of b as a JoinBatch frame of request id: the
// bytes Send writes for a Frame{ID: id, Batch: ...} of the same rows,
// with the rows' bytes taken from b's record as they are, in one
// vectored write where the connection supports it. Like Send, it
// refuses a frame over MaxFrameSize.
func (c *Conn) SendBatch(id uint64, b *Batches, i int) error {
	f := &b.Frames[i]
	body := b.rec[f.start:f.end]
	e := encoder{b: append(c.head[:0], 0, 0, 0, 0), packed: f}
	e.uvarint(kindFrame)
	e.frame(&Frame{ID: id, Batch: &JoinBatch{}})
	c.head = e.b
	size := len(e.b) - 4 + len(body)
	if size > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(e.b, uint32(size))
	c.vec = [3][]byte{e.b[:e.cut], body, e.b[e.cut:]}
	v := net.Buffers(c.vec[:])
	_, err := v.WriteTo(c.w)
	c.vec = [3][]byte{} // drop the reference to the record
	if err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// Recv reads one framed message into v, overwriting every field. It
// returns io.EOF or net.ErrClosed unwrapped on a clean boundary
// (connection ended between frames); a stream that ends mid-frame
// yields an error wrapping ErrTruncatedFrame AND the underlying cause,
// so callers can still classify closed-connection errors with
// errors.Is. A payload that is not a well-formed message of v's kind
// yields ErrBadFrame. Byte strings in v alias a buffer this call
// allocates.
func (c *Conn) Recv(v any) error {
	hdr, err := c.r.Peek(4)
	if err != nil {
		if len(hdr) == 0 && (err == io.EOF || errors.Is(err, net.ErrClosed)) {
			return err // clean boundary, not truncation
		}
		return fmt.Errorf("%w: header: %w", ErrTruncatedFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr)
	c.r.Discard(4)
	if n == 0 || n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload, err := readPayload(c.r, int(n))
	if err != nil {
		return fmt.Errorf("%w: payload: %w", ErrTruncatedFrame, err)
	}
	return unmarshal(payload, v)
}

// readPayload reads an n-byte payload into a buffer of exactly n bytes,
// allocating at most recvPrealloc bytes before any arrive and doubling
// the buffer as they do.
func readPayload(r io.Reader, n int) ([]byte, error) {
	p := make([]byte, min(n, recvPrealloc))
	read := 0
	for {
		if _, err := io.ReadFull(r, p[read:]); err != nil {
			return nil, err
		}
		if len(p) == n {
			return p, nil
		}
		read = len(p)
		grown := make([]byte, min(n, 2*len(p)))
		copy(grown, p)
		p = grown
	}
}

// ClientHandshake performs the client side of the version handshake:
// it sends a Hello and validates the HelloAck. A first frame that is
// not a v5 HelloAck (a v4 server's gob frame, say) is a version
// mismatch.
func ClientHandshake(c *Conn) error {
	if err := c.Send(&Hello{Version: Version}); err != nil {
		return err
	}
	var ack HelloAck
	if err := c.Recv(&ack); err != nil {
		if errors.Is(err, ErrBadFrame) {
			return fmt.Errorf("%w: server's first frame is not a v%d HelloAck (%v)", ErrVersionMismatch, Version, err)
		}
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if ack.Version != Version {
		return fmt.Errorf("%w: server speaks v%d, client v%d", ErrVersionMismatch, ack.Version, Version)
	}
	if ack.Err != "" {
		return fmt.Errorf("wire: handshake rejected: %s", ack.Err)
	}
	return nil
}

// ServerHandshake performs the server side of the version handshake.
// On a version mismatch it sends a descriptive HelloAck before
// returning ErrVersionMismatch so other clients fail rather than hang.
// A first frame that is not a v5 Hello (a v4 client's gob frame, say)
// is a version mismatch too.
func ServerHandshake(c *Conn) error {
	var hello Hello
	if err := c.Recv(&hello); err != nil {
		if errors.Is(err, ErrBadFrame) {
			_ = c.Send(&HelloAck{
				Version: Version,
				Err:     fmt.Sprintf("unsupported protocol: first frame is not a v%d Hello", Version),
			})
			return fmt.Errorf("%w: client's first frame is not a v%d Hello (%v)", ErrVersionMismatch, Version, err)
		}
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if hello.Version != Version {
		_ = c.Send(&HelloAck{
			Version: Version,
			Err:     fmt.Sprintf("unsupported protocol version %d (server speaks %d)", hello.Version, Version),
		})
		return fmt.Errorf("%w: client speaks v%d, server v%d", ErrVersionMismatch, hello.Version, Version)
	}
	return c.Send(&HelloAck{Version: Version})
}
