package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/sse"
	"repro/internal/store"
	"repro/internal/wire"
)

// This file performs each workload's operation "unrolled": the
// benchmark itself makes, in pipeline order and on the operation's real
// inputs, the calls the client and server make between them, with a
// span around each call into a layer. The connection is replaced by an
// in-memory pipe, so what an unrolled operation lacks against the real
// one is TCP, goroutine hand-offs and the overlap of streaming with
// payload opening; trace.unrolled_vs_wire_ratio measures that gap.

// pipe is a framed connection over a buffer: what Send writes, Recv
// reads back.
type pipe struct {
	buf  bytes.Buffer
	conn *wire.Conn
}

func newPipe() *pipe {
	p := &pipe{}
	p.conn = wire.NewConn(&p.buf)
	return p
}

// send frames one message and returns its size on the wire.
func (p *pipe) send(v any) (int, error) {
	before := p.buf.Len()
	err := p.conn.Send(v)
	return p.buf.Len() - before, err
}

// joinRequest marshals a compiled spec into the request the client
// would send (client.joinReqFromSpec is not exported).
func joinRequest(tableA, tableB string, spec engine.JoinSpec) (*wire.JoinRequest, error) {
	req := &wire.JoinRequest{
		TableA: tableA, TableB: tableB, Workers: spec.Workers,
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

// unrolledStep is one executed plan step, kept so its engine work can
// be replayed call by call once the operation's span has closed.
type unrolledStep struct {
	left, right string
	spec        engine.JoinSpec
	rows        int // result rows the engine produced
}

// tracedRunner is a sql.StepRunner that does in process, with a span per
// layer, what client.planRunner and the server's join handler do across
// the connection.
type tracedRunner struct {
	e        *env
	tr       *tracer
	pipe     *pipe
	steps    []*unrolledStep
	reqBytes int
	// candidate rows and table rows over every side an SSE search
	// narrowed, for sse.candidates_share
	candRows, tableRows int
}

func (r *tracedRunner) RunStep(p *sql.Plan, step int, in sql.StepInput) (sql.StepStream, error) {
	tr, keys := r.tr, r.e.cli.Keys()
	var spec engine.JoinSpec
	if err := tr.do("sql.spec", func() (err error) {
		spec, err = p.SpecFor(step, keys)
		return err
	}); err != nil {
		return nil, err
	}
	spec.CandidatesA = in.CandidatesL
	spec.Batch = engine.DefaultBatchSize // what server.New configures
	st := &p.Steps[step]
	us := &unrolledStep{left: st.Left.Table, right: st.Right.Table, spec: spec}
	r.steps = append(r.steps, us)

	if err := tr.do("wire.request", func() error {
		req, err := joinRequest(us.left, us.right, spec)
		if err != nil {
			return err
		}
		n, err := r.pipe.send(&wire.Request{ID: 1, Join: req})
		r.reqBytes += n
		if err != nil {
			return err
		}
		return r.pipe.conn.Recv(new(wire.Request))
	}); err != nil {
		return nil, err
	}

	var js *engine.JoinStream
	if err := tr.do("engine.join", func() (err error) {
		js, err = r.e.srv.Engine().OpenJoin(us.left, us.right, spec)
		return err
	}); err != nil {
		return nil, err
	}
	return &tracedStream{r: r, js: js, step: us}, nil
}

// tracedStream drains one step: each engine batch crosses the pipe as
// result frames and has its payloads opened, as over the wire.
type tracedStream struct {
	r    *tracedRunner
	js   *engine.JoinStream
	step *unrolledStep
}

func (s *tracedStream) Next() ([]sql.StepRow, error) {
	tr := s.r.tr
	var rows []engine.JoinedRow
	err := tr.do("engine.join", func() (err error) {
		rows, err = s.js.Next()
		return err
	})
	if err == io.EOF {
		if _, err := s.r.e.crossPipe(tr, s.r.pipe, nil, s.js.RevealedPairs()); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	s.step.rows += len(rows)
	out := make([]wire.JoinedRow, len(rows))
	for i, jr := range rows {
		out[i] = wire.JoinedRow{RowA: jr.RowA, RowB: jr.RowB, PayloadA: jr.PayloadA, PayloadB: jr.PayloadB}
	}
	got, err := s.r.e.crossPipe(tr, s.r.pipe, out, -1)
	if err != nil {
		return nil, err
	}
	steps := make([]sql.StepRow, len(got))
	for i, jr := range got {
		steps[i] = sql.StepRow{RowL: jr.RowA, RowR: jr.RowB, PayloadL: jr.PayloadA, PayloadR: jr.PayloadB}
	}
	return steps, nil
}

func (s *tracedStream) Close()             { s.js.Close() }
func (s *tracedStream) RevealedPairs() int { return s.js.RevealedPairs() }

// crossPipe ships result rows the way the server's sendRowBatches does,
// in frames of at most DefaultBatchSize rows, reads them back and opens
// every payload. revealed >= 0 sends the stream's Summary frame instead.
func (e *env) crossPipe(tr *tracer, p *pipe, rows []wire.JoinedRow, revealed int) ([]wire.JoinedRow, error) {
	var frames []*wire.Frame
	if revealed >= 0 {
		frames = append(frames, &wire.Frame{ID: 1, Summary: &wire.JoinSummary{RevealedPairs: revealed}})
	}
	for len(rows) > 0 {
		n := min(len(rows), engine.DefaultBatchSize)
		frames = append(frames, &wire.Frame{ID: 1, Batch: &wire.JoinBatch{Rows: rows[:n:n]}})
		rows = rows[n:]
	}
	if err := tr.do("wire.send", func() error {
		for _, f := range frames {
			if _, err := p.send(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var got []wire.JoinedRow
	if err := tr.do("wire.recv", func() error {
		for range frames {
			var f wire.Frame
			if err := p.conn.Recv(&f); err != nil {
				return err
			}
			if f.Batch != nil {
				got = append(got, f.Batch.Rows...)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	keys := e.cli.Keys()
	err := tr.do("engine.open_payload", func() (err error) {
		for i := range got {
			// an empty payload is a key-only column: nothing to open
			if len(got[i].PayloadA) > 0 {
				if got[i].PayloadA, err = keys.OpenPayload(got[i].PayloadA); err != nil {
					return err
				}
			}
			if len(got[i].PayloadB) > 0 {
				if got[i].PayloadB, err = keys.OpenPayload(got[i].PayloadB); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return got, err
}

// unrolledQuery performs query qi as compile, then a plan execution
// driven by a tracedRunner. The caller replays the returned runner's
// steps after closing the operation's span.
func (e *env) unrolledQuery(tr *tracer, qi int) (opResult, *tracedRunner, error) {
	q := &e.w.queries[qi]
	r := opResult{q: q, want: e.expect[qi]}
	run := &tracedRunner{e: e, tr: tr, pipe: newPipe()}
	var plan *sql.Plan
	if err := tr.do("sql.compile", func() (err error) {
		plan, err = e.cat.Compile(q.sql)
		return err
	}); err != nil {
		return r, nil, err
	}
	r.sigmaMax = e.sigmaMax(qi, plan)
	err := tr.do("sql.execute", func() (err error) {
		r.revealed, err = sql.Execute(run, plan, func(row sql.ResultRow) error {
			r.acc.add(row.Rows, row.Payloads)
			return nil
		})
		return err
	})
	return r, run, err
}

// replay repeats by hand what engine.OpenJoin and Next did inside each
// step of the finished operation — candidate selection, the two token
// precomputes, the two parallel decrypts, the hash match — so that the
// engine's own share is its span minus these.
func (r *tracedRunner) replay() error {
	tr := r.tr
	tr.begin("bench.replay")
	defer tr.end()
	for _, us := range r.steps {
		q := us.spec.Query
		var tokensA, tokensB map[int][]sse.SearchToken
		if pf := us.spec.Prefilter; pf != nil {
			q, tokensA, tokensB = pf.Join, pf.TokensA, pf.TokensB
		}
		var sides [2][]securejoin.DValue
		for i, side := range []struct {
			table    string
			token    *securejoin.Token
			tokens   map[int][]sse.SearchToken
			explicit []int
		}{
			{us.left, q.TokenA, tokensA, us.spec.CandidatesA},
			{us.right, q.TokenB, tokensB, us.spec.CandidatesB},
		} {
			t, err := r.e.srv.Engine().Table(side.table)
			if err != nil {
				return err
			}
			cts, err := r.candidates(t, side.tokens, side.explicit)
			if err != nil {
				return err
			}
			var pc *securejoin.TokenPrecomp
			tr.do("securejoin.precompute", func() error {
				pc = side.token.Precompute()
				return nil
			})
			if err := tr.do("securejoin.dec", func() (err error) {
				sides[i], err = securejoin.DecryptTableParallelWith(pc, cts, us.spec.Workers)
				return err
			}); err != nil {
				return err
			}
		}
		var pairs []securejoin.MatchPair
		tr.do("securejoin.hashjoin", func() error {
			pairs = securejoin.HashJoin(sides[0], sides[1])
			return nil
		})
		if len(pairs) != us.rows {
			return fmt.Errorf("replay of %s x %s matched %d pairs, the engine produced %d rows", us.left, us.right, len(pairs), us.rows)
		}
	}
	return nil
}

// candidates resolves one side's rows as the engine does: the SSE
// search of its predicate tokens, intersected with an explicit
// semi-join list, or every row when neither restricts it.
func (r *tracedRunner) candidates(t *engine.EncryptedTable, tokens map[int][]sse.SearchToken, explicit []int) ([]*securejoin.RowCiphertext, error) {
	var cand []int
	restricted := false
	if t.Index != nil && len(tokens) > 0 {
		if err := r.tr.do("sse.search", func() error {
			for _, toks := range tokens {
				rows, err := t.Index.SearchUnion(toks)
				if err != nil {
					return err
				}
				if restricted {
					rows = sse.IntersectSorted(cand, rows)
				}
				cand, restricted = rows, true
			}
			return nil
		}); err != nil {
			return nil, err
		}
		r.candRows += len(cand)
		r.tableRows += len(t.Rows)
	}
	if len(explicit) > 0 {
		if restricted {
			explicit = sse.IntersectSorted(cand, explicit)
		}
		cand, restricted = explicit, true
	}
	if !restricted {
		cts := make([]*securejoin.RowCiphertext, len(t.Rows))
		for i, row := range t.Rows {
			cts[i] = row.Join
		}
		return cts, nil
	}
	cts := make([]*securejoin.RowCiphertext, len(cand))
	for i, row := range cand {
		cts[i] = t.Rows[row].Join
	}
	return cts, nil
}

// unrolledReplay is job_replay's operation: read the spool, frame the
// rows, open both payloads.
func (e *env) unrolledReplay(tr *tracer, i int) (opResult, error) {
	q := &e.w.queries[0]
	r := opResult{q: q, want: e.expect[0], sigmaMax: e.sigma(0, q.tables[0], q.tables[1])}
	var spool []store.JobRow
	if err := tr.do("store.read_job_rows", func() (err error) {
		spool, err = e.st.ReadJobRows(e.jobID)
		return err
	}); err != nil {
		return r, err
	}
	rows := make([]wire.JoinedRow, len(spool))
	for i, jr := range spool {
		rows[i] = wire.JoinedRow{RowA: jr.RowA, RowB: jr.RowB, PayloadA: jr.PayloadA, PayloadB: jr.PayloadB}
	}
	p := newPipe()
	got, err := e.crossPipe(tr, p, rows, -1)
	if err != nil {
		return r, err
	}
	if _, err := e.crossPipe(tr, p, nil, 0); err != nil {
		return r, err
	}
	for _, jr := range got {
		r.acc.add([]int{jr.RowA, jr.RowB}, [][]byte{jr.PayloadA, jr.PayloadB})
	}
	return r, nil
}

// uploadFrames ships an encrypted table across the pipe as the client's
// upload does and decodes it as the server's upload handler does,
// returning the table the server would install and the bytes sent.
func uploadFrames(p *pipe, table *engine.EncryptedTable) (*engine.EncryptedTable, int, error) {
	req := &wire.UploadRequest{Table: table.Name, Commit: true, NDV: table.NDV, Rows: make([]wire.UploadRow, len(table.Rows))}
	for i, row := range table.Rows {
		jc, err := row.Join.MarshalBinary()
		if err != nil {
			return nil, 0, err
		}
		req.Rows[i] = wire.UploadRow{JoinCiphertext: jc, Payload: row.Payload}
	}
	if table.Index != nil {
		var err error
		if req.Index, err = table.Index.MarshalBinary(); err != nil {
			return nil, 0, err
		}
	}
	n, err := p.send(&wire.Request{ID: 1, Upload: req})
	if err != nil {
		return nil, n, err
	}
	var in wire.Request
	if err := p.conn.Recv(&in); err != nil {
		return nil, n, err
	}
	out := &engine.EncryptedTable{Name: in.Upload.Table, NDV: in.Upload.NDV, Rows: make([]*engine.EncryptedRow, len(in.Upload.Rows))}
	for i, row := range in.Upload.Rows {
		var ct securejoin.RowCiphertext
		if err := ct.UnmarshalBinary(row.JoinCiphertext); err != nil {
			return nil, n, err
		}
		out.Rows[i] = &engine.EncryptedRow{Join: &ct, Payload: row.Payload}
	}
	if len(in.Upload.Index) > 0 {
		out.Index = &sse.Index{}
		if err := out.Index.UnmarshalBinary(in.Upload.Index); err != nil {
			return nil, n, err
		}
	}
	return out, n, nil
}

// unrolledIngest is ingest's operation: encrypt and index the rows,
// frame the upload, commit the decoded table through the engine to the
// store.
func (e *env) unrolledIngest(tr *tracer, i int) (opResult, error) {
	name := e.w.tables[i%len(e.w.tables)]
	var table *engine.EncryptedTable
	if err := tr.do("engine.encrypt_table", func() (err error) {
		table, err = e.cli.Keys().EncryptTableIndexed(name, e.data.tables[name])
		return err
	}); err != nil {
		return opResult{}, err
	}
	if err := tr.do("wire.upload", func() (err error) {
		table, _, err = uploadFrames(newPipe(), table)
		return err
	}); err != nil {
		return opResult{}, err
	}
	return opResult{}, tr.do("store.commit", func() error {
		return e.srv.Engine().RegisterTable(table)
	})
}
