package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/layout"
)

// The frame codec. A frame payload is one message: a kind byte, then
// the message's fields in the order its struct declares them.
//
//	uint, int, int64   uvarint; a negative int is its two's-complement
//	                   uint64, ten bytes
//	bool               uvarint 0 or 1
//	float64            8 bytes, IEEE 754 bits, big-endian
//	[]byte, string     uvarint length, then that many bytes
//	*sub-message       presence byte 0 or 1, then the sub-message's fields
//	[]T                uvarint count, then each element
//	JoinBatch          uvarint length, then the packed row record
//
// DESIGN.md gives the byte layout of every message. Every value has
// exactly one encoding (minimal uvarints, bools and presence bytes 0 or
// 1), so a frame the decoder accepts re-encodes to the same bytes.
//
// The decoder treats the payload as hostile: it checks every length
// and count against the bytes left before it allocates, caps the
// fields whose decoding costs the server work (tokens, token maps,
// candidate lists, upload chunks), and rejects an unknown kind and
// trailing bytes. Byte strings and batch payloads alias the payload
// buffer, each capped at its own length; Recv allocates that buffer
// per frame, so nothing received is overwritten by a later frame.

// ErrBadFrame is returned (wrapped) by Recv for a frame payload that is
// not a well-formed message of the kind asked for.
var ErrBadFrame = errors.New("wire: malformed frame")

// Message kinds, the first byte of every frame payload.
const (
	kindHello    = 1
	kindHelloAck = 2
	kindRequest  = 3
	kindFrame    = 4
)

// Caps on the fields whose size sets the work a request makes the
// server do. Send refuses a message over a cap, so a conforming peer
// never sees its request rejected by one.
const (
	// maxTokenBytes bounds a query token: a count and Dim 64-byte G2
	// elements, each a square root and a subgroup check to decode. It
	// admits Dim = m(t+1)+3 up to 4,095.
	maxTokenBytes = 1 << 18
	// maxPrefilterBytes bounds one side's SSE search-token map.
	maxPrefilterBytes = 1 << 20
	// maxCandidates bounds one side's semi-join candidate list.
	maxCandidates = 1 << 22
	// maxUploadRows bounds one upload chunk. The client charges every
	// row at least 64 bytes against FrameByteBudget, so no chunk it
	// sends holds more.
	maxUploadRows = FrameByteBudget / 64
)

// Smallest encodings of a list element, for checking a count against
// the bytes left: an upload row is two empty byte strings, a table
// entry an empty name and five one-byte integers.
const (
	minUploadRowBytes = 2
	minTableInfoBytes = 6
)

// marshal encodes v behind a 4-byte big-endian length header. A
// counting pass sizes the frame (and checks the caps), so the writing
// pass fills one buffer of exactly that size.
func marshal(v any) ([]byte, error) {
	e := encoder{counting: true}
	e.message(v)
	if e.err != nil {
		return nil, e.err
	}
	if e.n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	e = encoder{b: make([]byte, 4, 4+e.n)}
	e.message(v)
	binary.BigEndian.PutUint32(e.b, uint32(len(e.b)-4))
	return e.b, nil
}

// encoder writes one message, or with counting set only adds up its
// size in n. With packed set it writes a batch frame whose rows' bytes
// the caller sends from their record itself (Conn.SendBatch): the batch
// body stops after its length and row count, and cut marks where the
// rows' bytes go.
type encoder struct {
	b        []byte
	n        int
	counting bool
	err      error
	packed   *BatchFrame
	cut      int
}

func (e *encoder) message(v any) {
	switch m := v.(type) {
	case *Hello:
		e.uvarint(kindHello)
		e.uvarint(uint64(m.Version))
	case *HelloAck:
		e.uvarint(kindHelloAck)
		e.uvarint(uint64(m.Version))
		e.string(m.Err)
	case *Request:
		e.uvarint(kindRequest)
		e.request(m)
	case *Frame:
		e.uvarint(kindFrame)
		e.frame(m)
	default:
		// reflect.TypeOf rather than %T: formatting v itself would make
		// every message passed to Send escape to the heap.
		e.err = fmt.Errorf("wire: encode: cannot send %v", reflect.TypeOf(v))
	}
}

func (e *encoder) request(r *Request) {
	e.uvarint(r.ID)
	if e.present(r.Upload != nil) {
		e.upload(r.Upload)
	}
	if e.present(r.Join != nil) {
		e.join(r.Join)
	}
	e.bool(r.Ping)
	e.uvarint(r.Cancel)
	e.bool(r.Describe)
	if e.present(r.Submit != nil) && e.present(r.Submit.Join != nil) {
		e.join(r.Submit.Join)
	}
	e.string(r.JobStatus)
	e.string(r.Attach)
}

func (e *encoder) upload(u *UploadRequest) {
	e.string(u.Table)
	e.limit("upload rows", len(u.Rows), maxUploadRows)
	e.uvarint(uint64(len(u.Rows)))
	for i := range u.Rows {
		e.bytes(u.Rows[i].JoinCiphertext)
		e.bytes(u.Rows[i].Payload)
	}
	e.bool(u.Append)
	e.bool(u.Commit)
	e.bytes(u.Index)
	e.int(u.Shard)
	e.int(u.ShardCount)
	e.int(u.NDV)
}

func (e *encoder) join(j *JoinRequest) {
	e.string(j.TableA)
	e.string(j.TableB)
	e.limit("token A bytes", len(j.TokenA), maxTokenBytes)
	e.limit("token B bytes", len(j.TokenB), maxTokenBytes)
	e.bytes(j.TokenA)
	e.bytes(j.TokenB)
	e.limit("prefilter A bytes", len(j.PrefilterA), maxPrefilterBytes)
	e.limit("prefilter B bytes", len(j.PrefilterB), maxPrefilterBytes)
	e.bytes(j.PrefilterA)
	e.bytes(j.PrefilterB)
	e.int(j.Workers)
	e.ints("candidates A", j.CandidatesA)
	e.ints("candidates B", j.CandidatesB)
	e.bool(j.SkipPayloadA)
	e.bool(j.SkipPayloadB)
}

func (e *encoder) frame(f *Frame) {
	e.uvarint(f.ID)
	e.string(f.Err)
	e.bool(f.Ok)
	if e.present(f.Batch != nil) {
		e.rows(f.Batch.Rows)
	}
	if e.present(f.Summary != nil) {
		e.int(f.Summary.RevealedPairs)
	}
	if e.present(f.Tables != nil) {
		e.uvarint(uint64(len(f.Tables.Tables)))
		for i := range f.Tables.Tables {
			t := &f.Tables.Tables[i]
			e.string(t.Name)
			e.int(t.Rows)
			e.bool(t.Indexed)
			e.int(t.Shard)
			e.int(t.ShardCount)
			e.int(t.NDV)
		}
	}
	e.string(f.Code)
	if h := f.Health; e.present(h != nil) {
		e.bool(h.Ready)
		e.int(h.Tables)
		e.int(h.ActiveConns)
		e.int(h.InflightJoins)
		e.uvarint(h.ShedTotal)
		e.uvarint(h.RevealedPairs)
		e.float64(h.UptimeSeconds)
		e.int(h.JobsQueued)
		e.int(h.JobsRunning)
		e.int(h.JobsStored)
	}
	if e.present(f.Job != nil) {
		e.job(f.Job)
	}
}

func (e *encoder) job(j *JobInfo) {
	e.string(j.ID)
	e.string(j.State)
	e.string(j.TableA)
	e.string(j.TableB)
	e.int(j.RowsDecrypted)
	e.int(j.StepsDone)
	e.int(j.RevealedPairs)
	e.int(j.ResultRows)
	e.string(j.Err)
	e.int64(j.CreatedUnix)
	e.int64(j.StartedUnix)
	e.int64(j.FinishedUnix)
}

// AppendJobInfo appends the image of j a Frame's Job field carries (its
// fields in declared order, as the frame codec writes them) to dst. The
// store's job records hold the same image, so a job's record on disk
// and its JobStatus answer are one encoding; ReadJobInfo reads it.
func AppendJobInfo(dst []byte, j *JobInfo) []byte {
	e := encoder{b: dst}
	e.job(j)
	return e.b
}

// ReadJobInfo reads the image of a job AppendJobInfo writes.
func ReadJobInfo(r *layout.Reader) JobInfo {
	// A composite literal's calls run left to right, so the fields are
	// read in declared order.
	return JobInfo{
		ID:            r.String(),
		State:         r.String(),
		TableA:        r.String(),
		TableB:        r.String(),
		RowsDecrypted: r.Int(),
		StepsDone:     r.Int(),
		RevealedPairs: r.Int(),
		ResultRows:    r.Int(),
		Err:           r.String(),
		CreatedUnix:   int64(r.Uvarint()),
		StartedUnix:   int64(r.Uvarint()),
		FinishedUnix:  int64(r.Uvarint()),
	}
}

func (e *encoder) uvarint(x uint64) {
	if e.counting {
		e.n += uvarintLen(x)
		return
	}
	e.b = binary.AppendUvarint(e.b, x)
}

func (e *encoder) int(x int)     { e.uvarint(uint64(x)) }
func (e *encoder) int64(x int64) { e.uvarint(uint64(x)) }

func (e *encoder) bool(x bool) {
	if x {
		e.uvarint(1)
	} else {
		e.uvarint(0)
	}
}

// present writes a sub-message's presence byte and returns it.
func (e *encoder) present(x bool) bool {
	e.bool(x)
	return x
}

func (e *encoder) float64(x float64) {
	if e.counting {
		e.n += 8
		return
	}
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(x))
}

func (e *encoder) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	if e.counting {
		e.n += len(p)
		return
	}
	e.b = append(e.b, p...)
}

func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	if e.counting {
		e.n += len(s)
		return
	}
	e.b = append(e.b, s...)
}

func (e *encoder) ints(what string, xs []int) {
	e.limit(what, len(xs), maxCandidates)
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.int(x)
	}
}

// rows writes a batch body: the packed row record behind its length.
func (e *encoder) rows(rows []JoinedRow) {
	if f := e.packed; f != nil {
		count := uint64(f.Rows)
		e.uvarint(uint64(uvarintLen(count) + f.end - f.start))
		e.uvarint(count)
		e.cut = len(e.b)
		return
	}
	n := rowsLen(rows)
	e.uvarint(uint64(n))
	if e.counting {
		e.n += n
		return
	}
	e.b = AppendRows(e.b, rows)
}

func (e *encoder) limit(what string, n, max int) {
	if n > max && e.err == nil {
		e.err = fmt.Errorf("wire: encode: %d %s exceed the cap of %d", n, what, max)
	}
}

// unmarshal decodes one frame payload into v, which must be a *Hello,
// *HelloAck, *Request or *Frame; every field of *v is overwritten.
func unmarshal(b []byte, v any) error {
	d := decoder{layout.NewReader(b, ErrBadFrame)}
	kind := d.Uvarint()
	switch m := v.(type) {
	case *Hello:
		d.kind(kind, kindHello)
		*m = Hello{Version: d.uint32()}
	case *HelloAck:
		d.kind(kind, kindHelloAck)
		*m = HelloAck{Version: d.uint32(), Err: d.String()}
	case *Request:
		d.kind(kind, kindRequest)
		*m = d.request()
	case *Frame:
		d.kind(kind, kindFrame)
		*m = d.frame()
	default:
		return fmt.Errorf("wire: decode: cannot receive into %v", reflect.TypeOf(v))
	}
	return d.Done()
}

// decoder reads one message with layout.Reader's primitives, adding
// the frame codec's own: bools, presence bytes, float64s and the capped
// fields.
type decoder struct {
	layout.Reader
}

func (d *decoder) kind(got uint64, want int) {
	if got != uint64(want) && d.Err() == nil {
		d.Fail("message kind %d, want %d", got, want)
	}
}

// The composite literals below read the fields in declared order: Go
// evaluates the calls in a composite literal left to right.

func (d *decoder) request() Request {
	return Request{
		ID:        d.Uvarint(),
		Upload:    d.upload(),
		Join:      d.join(),
		Ping:      d.bool(),
		Cancel:    d.Uvarint(),
		Describe:  d.bool(),
		Submit:    d.submit(),
		JobStatus: d.String(),
		Attach:    d.String(),
	}
}

func (d *decoder) upload() *UploadRequest {
	if !d.present() {
		return nil
	}
	u := &UploadRequest{Table: d.String()}
	if n := d.count("upload rows", minUploadRowBytes, maxUploadRows); n > 0 {
		// Field by field, as ParseRows fills its rows: a whole-struct
		// store pays a bulk write barrier per row while the GC runs.
		u.Rows = make([]UploadRow, n)
		for i := range u.Rows {
			r := &u.Rows[i]
			r.JoinCiphertext = d.Bytes()
			r.Payload = d.Bytes()
		}
	}
	u.Append = d.bool()
	u.Commit = d.bool()
	u.Index = d.Bytes()
	u.Shard = d.Int()
	u.ShardCount = d.Int()
	u.NDV = d.Int()
	return u
}

func (d *decoder) submit() *SubmitRequest {
	if !d.present() {
		return nil
	}
	return &SubmitRequest{Join: d.join()}
}

func (d *decoder) join() *JoinRequest {
	if !d.present() {
		return nil
	}
	return &JoinRequest{
		TableA:       d.String(),
		TableB:       d.String(),
		TokenA:       d.capped("token A", maxTokenBytes),
		TokenB:       d.capped("token B", maxTokenBytes),
		PrefilterA:   d.capped("prefilter A", maxPrefilterBytes),
		PrefilterB:   d.capped("prefilter B", maxPrefilterBytes),
		Workers:      d.Int(),
		CandidatesA:  d.ints("candidates A"),
		CandidatesB:  d.ints("candidates B"),
		SkipPayloadA: d.bool(),
		SkipPayloadB: d.bool(),
	}
}

func (d *decoder) frame() Frame {
	return Frame{
		ID:      d.Uvarint(),
		Err:     d.String(),
		Ok:      d.bool(),
		Batch:   d.batch(),
		Summary: d.summary(),
		Tables:  d.tables(),
		Code:    d.String(),
		Health:  d.health(),
		Job:     d.job(),
	}
}

// batch parses a batch body in place: the rows' payloads alias the
// frame payload.
func (d *decoder) batch() *JoinBatch {
	if !d.present() {
		return nil
	}
	rec := d.Bytes()
	if d.Err() != nil {
		return nil
	}
	rows, err := ParseRows(rec)
	if err != nil {
		d.Fail("batch: %v", err)
		return nil
	}
	return &JoinBatch{Rows: rows}
}

func (d *decoder) summary() *JoinSummary {
	if !d.present() {
		return nil
	}
	return &JoinSummary{RevealedPairs: d.Int()}
}

func (d *decoder) tables() *TableList {
	if !d.present() {
		return nil
	}
	tl := &TableList{}
	if n := d.count("tables", minTableInfoBytes, math.MaxInt); n > 0 {
		tl.Tables = make([]TableInfo, n)
		for i := range tl.Tables {
			tl.Tables[i] = TableInfo{
				Name:       d.String(),
				Rows:       d.Int(),
				Indexed:    d.bool(),
				Shard:      d.Int(),
				ShardCount: d.Int(),
				NDV:        d.Int(),
			}
		}
	}
	return tl
}

func (d *decoder) health() *HealthInfo {
	if !d.present() {
		return nil
	}
	return &HealthInfo{
		Ready:         d.bool(),
		Tables:        d.Int(),
		ActiveConns:   d.Int(),
		InflightJoins: d.Int(),
		ShedTotal:     d.Uvarint(),
		RevealedPairs: d.Uvarint(),
		UptimeSeconds: d.float64(),
		JobsQueued:    d.Int(),
		JobsRunning:   d.Int(),
		JobsStored:    d.Int(),
	}
}

func (d *decoder) job() *JobInfo {
	if !d.present() {
		return nil
	}
	j := ReadJobInfo(&d.Reader)
	return &j
}

func (d *decoder) uint32() uint32 {
	x := d.Uvarint()
	if x > math.MaxUint32 {
		d.Fail("version %d out of range", x)
		return 0
	}
	return uint32(x)
}

func (d *decoder) bool() bool {
	switch x := d.Uvarint(); x {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail("bool or presence byte %d", x)
		return false
	}
}

func (d *decoder) present() bool { return d.bool() }

func (d *decoder) float64() float64 {
	p := d.Next(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(p))
}

// capped reads a byte string that may hold at most max bytes.
func (d *decoder) capped(what string, max int) []byte {
	p := d.Bytes()
	if len(p) > max {
		d.Fail("%s of %d bytes exceeds the cap of %d", what, len(p), max)
		return nil
	}
	return p
}

// count reads a list length that fits the bytes left at min bytes per
// element and is at most max.
func (d *decoder) count(what string, min, max int) int {
	n := d.Count(what, min)
	if n > max {
		d.Fail("%d %s exceed the cap of %d", n, what, max)
		return 0
	}
	return n
}

func (d *decoder) ints(what string) []int {
	n := d.count(what, 1, maxCandidates)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = d.Int()
	}
	return xs
}
