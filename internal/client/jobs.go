package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/wire"
)

// This file is the client side of the async job subsystem: a join can
// be submitted as a job (SubmitPlan), acknowledged immediately
// with a job ID, and then polled (JobStatus) or streamed
// (AttachJob) from this or any later connection — the server spools a
// completed job's result durably, so the submitting client may
// disconnect, or the server restart, between submit and attach.

// ErrUnknownJob is wrapped by errors of job calls naming an ID the
// server does not know (wire.CodeUnknownJob). Completed jobs expire
// after the server's job TTL, and jobs still queued or running when
// the server restarts are lost — either way the join must be
// resubmitted. Test with errors.Is.
var ErrUnknownJob = errors.New("client: unknown job")

// JobInfo describes one async job as last reported by the server.
type JobInfo = wire.JobInfo

// SubmitJoinQuery submits SELECT * FROM tableA JOIN tableB ON joinA =
// joinB WHERE selA AND selB as an async job: the server validates and
// enqueues the join on its worker pool and answers immediately with
// the job's ID and queued-state snapshot, without waiting for any
// pairing work. Track it with JobStatus and collect results with
// AttachJob or WaitJob. A full worker queue sheds the submission with
// ErrOverloaded; submit ran no work and is safe to retry (WithRetry).
func (c *Client) SubmitJoinQuery(tableA, tableB string, selA, selB securejoin.Selection, opts JoinOpts) (*JobInfo, error) {
	req, err := adHocReq(c.keys, tableA, tableB, selA, selB, opts)
	if err != nil {
		return nil, err
	}
	return c.submit(req)
}

// SubmitPlan submits a compiled one-step plan as an async job, like
// SubmitJoinQuery: the request is the plan's step 0 exactly as
// Runner would send it, so the job decrypts the same rows and reveals
// the same pairs as ExecutePlan. A multi-step plan is rejected before
// anything is sent: its steps stitch client-side, so no single job
// holds its result (run it with sql.Execute over Runner(true)).
func (c *Client) SubmitPlan(p *sql.Plan) (*JobInfo, error) {
	if len(p.Steps) != 1 {
		return nil, fmt.Errorf("client: a job runs one join step, and this plan has %d", len(p.Steps))
	}
	spec, err := p.SpecFor(0, c.keys)
	if err != nil {
		return nil, err
	}
	st := &p.Steps[0]
	req, err := joinReqFromSpec(st.Left.Table, st.Right.Table, spec)
	if err != nil {
		return nil, err
	}
	return c.submit(req)
}

// submit ships one join request as a Submit and decodes the job-info
// ack.
func (c *Client) submit(req *wire.JoinRequest) (*JobInfo, error) {
	p, err := c.send(&wire.Request{Submit: &wire.SubmitRequest{Join: req}})
	if err != nil {
		return nil, err
	}
	f := p.pop()
	if f == nil {
		return nil, c.connErr()
	}
	if f.Err != "" {
		return nil, frameErr("submit", f)
	}
	if f.Job == nil {
		return nil, errors.New("client: submit ack carried no job info")
	}
	return f.Job, nil
}

// JobStatus polls one job's current state and progress counters
// (rows decrypted, pipeline steps completed, revealed pairs so far).
// An expired or never-known ID fails with ErrUnknownJob.
func (c *Client) JobStatus(id string) (*JobInfo, error) {
	p, err := c.send(&wire.Request{JobStatus: id})
	if err != nil {
		return nil, err
	}
	f := p.pop()
	if f == nil {
		return nil, c.connErr()
	}
	if f.Err != "" {
		return nil, frameErr("job status", f)
	}
	if f.Job == nil {
		return nil, errors.New("client: job status ack carried no job info")
	}
	return f.Job, nil
}

// AttachJob opens the result stream of a job: the server holds the
// request until the job reaches a terminal state, then streams the
// (possibly spooled) result batches exactly like a synchronous join.
// Any connection may attach — including one dialed after the
// submitter disconnected or the server restarted — and a job may be
// attached any number of times before its TTL reaps it. A failed
// job's stream yields the job's error on the first Next.
func (c *Client) AttachJob(id string) (*JoinStream, error) {
	p, err := c.send(&wire.Request{Attach: id})
	if err != nil {
		return nil, err
	}
	return &JoinStream{c: c, p: p}, nil
}

// WaitJob attaches to a job and drains it: the decrypted result rows
// and the job's revealed-pair count, blocking until the job finishes.
func (c *Client) WaitJob(id string) ([]JoinResult, int, error) {
	stream, err := c.AttachJob(id)
	if err != nil {
		return nil, 0, err
	}
	return stream.drain()
}

// PollJob polls a job's status until it reaches a terminal state
// (done or failed) and returns the final snapshot. It is the polling
// twin of AttachJob for callers that want progress visibility rather
// than results; interval <= 0 selects 500ms. Uncancellable — prefer
// PollJobCtx, which this delegates to with context.Background().
func (c *Client) PollJob(id string, interval time.Duration) (*JobInfo, error) {
	return c.PollJobCtx(context.Background(), id, interval)
}

// PollJobCtx is PollJob bounded by a context: a caller that
// disconnects (or times out) cancels the poll between status requests
// instead of hammering JobStatus forever on a job nobody is waiting
// for. Each wait is the interval with ±50% uniform jitter, so N
// clients polling the same server do not converge into lockstep
// status bursts.
func (c *Client) PollJobCtx(ctx context.Context, id string, interval time.Duration) (*JobInfo, error) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	for {
		info, err := c.JobStatus(id)
		if err != nil {
			return nil, err
		}
		if info.State == wire.JobDone || info.State == wire.JobFailed {
			return info, nil
		}
		// ±50% jitter: interval/2 + rand[0, interval).
		delay := interval/2 + time.Duration(rand.Int63n(int64(interval)))
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}
