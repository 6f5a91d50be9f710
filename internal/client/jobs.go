package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/wire"
)

// This file is the client side of the async job subsystem: a join can
// be submitted as a job (Cluster.SubmitPlan), acknowledged immediately
// with a job ID, and then polled (JobStatus) or collected (WaitJob)
// from this or any later connection — the server spools a completed
// job's result durably, so the submitting client may disconnect, or the
// server restart, between submit and attach. A cluster job is one job
// per shard; its ID is theirs joined with ",", in shard order, so a
// one-shard cluster's job ID is its server's.

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

// submit ships one join request as a Submit and decodes the job-info
// ack.
func (c *Client) submit(req *wire.JoinRequest) (*JobInfo, error) {
	f, err := c.roundTrip(&wire.Request{Submit: &wire.SubmitRequest{Join: req}}, "submit", hasJob)
	if err != nil {
		return nil, err
	}
	return f.Job, nil
}

// hasJob accepts a frame carrying job info.
func hasJob(f *wire.Frame) bool { return f.Job != nil }

// JobStatus polls one job's current state and progress counters
// (rows decrypted, pipeline steps completed, revealed pairs so far).
// An expired or never-known ID fails with ErrUnknownJob.
func (c *Client) JobStatus(id string) (*JobInfo, error) {
	f, err := c.roundTrip(&wire.Request{JobStatus: id}, "job status", hasJob)
	if err != nil {
		return nil, err
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

// SubmitPlan submits a compiled one-step plan as an async job on every
// shard, like SubmitJoinQuery: each shard's request is the plan's step
// 0 exactly as Runner would send it, so the jobs decrypt the same rows
// and reveal the same pairs as ExecutePlan. The shards are submitted to
// at once, as uploads are, and a shard that sheds the submit is retried
// on its own, so a submit waits for the longest shard's backoff rather
// than for their sum. A multi-step plan is rejected before
// anything is sent: its steps stitch client-side, so no job holds its
// result (run it with ExecutePlan). The returned
// info is the shards' merged, under the cluster job ID.
func (cl *Cluster) SubmitPlan(p *sql.Plan) (*JobInfo, error) {
	if len(p.Steps) != 1 {
		return nil, fmt.Errorf("client: a job runs one join step, and this plan has %d", len(p.Steps))
	}
	spec, err := p.SpecFor(0, cl.keys)
	if err != nil {
		return nil, err
	}
	st := &p.Steps[0]
	req, err := joinReqFromSpec(st.Left.Table, st.Right.Table, spec)
	if err != nil {
		return nil, err
	}
	infos := make([]*JobInfo, len(cl.clients))
	errs := make([]error, len(cl.clients))
	var wg sync.WaitGroup
	for s, c := range cl.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = WithRetry(func() (err error) {
				infos[s], err = c.submit(req)
				return err
			})
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client: submitting shard %d: %w", s, err)
		}
	}
	return mergeJobInfos(infos), nil
}

// JobStatus polls a cluster job: its state is failed if any shard's
// job failed, done if all are done, running once any has started and
// queued before; its progress counters are the shards' summed. An ID
// that is not one hex job ID per shard is refused before anything is
// sent; one a shard does not know fails with ErrUnknownJob.
func (cl *Cluster) JobStatus(id string) (*JobInfo, error) {
	infos, err := cl.jobInfos(id)
	if err != nil {
		return nil, err
	}
	return mergeJobInfos(infos), nil
}

// WaitJob attaches to every shard's job and drains the merged stream:
// the decrypted result rows, with the row identities ExecutePlan
// reports, and the summed revealed-pair count, blocking until every
// shard's job finishes.
func (cl *Cluster) WaitJob(id string) ([]JoinResult, int, error) {
	infos, err := cl.jobInfos(id)
	if err != nil {
		return nil, 0, err
	}
	opens := make([]func() (*JoinStream, error), len(infos))
	for s, info := range infos {
		if info.TableA != infos[0].TableA || info.TableB != infos[0].TableB {
			return nil, 0, fmt.Errorf("client: job %q joins %s with %s on shard %d but %s with %s on shard 0",
				id, info.TableA, info.TableB, s, infos[0].TableA, infos[0].TableB)
		}
		opens[s] = func() (*JoinStream, error) { return cl.clients[s].AttachJob(info.ID) }
	}
	ms := cl.merge(infos[0].TableA, infos[0].TableB, opens)
	var out []JoinResult
	for {
		rows, err := ms.Next()
		if err == io.EOF {
			return out, ms.RevealedPairs(), nil
		}
		if err != nil {
			return nil, 0, err
		}
		for _, r := range rows {
			out = append(out, JoinResult{RowA: r.RowL, RowB: r.RowR, PayloadA: r.PayloadL, PayloadB: r.PayloadR})
		}
	}
}

// jobInfos splits a cluster job ID into its shard job IDs and polls
// each shard's job. The ID is user input: the wrong number of parts, an
// empty part or a non-hex one is refused before any request is sent.
func (cl *Cluster) jobInfos(id string) ([]*JobInfo, error) {
	parts := strings.Split(id, ",")
	if len(parts) != len(cl.clients) {
		return nil, fmt.Errorf("client: job id %q has %d part(s) for %d shard(s)", id, len(parts), len(cl.clients))
	}
	for _, part := range parts {
		if part == "" || strings.Trim(part, "0123456789abcdef") != "" {
			return nil, fmt.Errorf("client: job id %q: part %q is not a hex job id", id, part)
		}
	}
	infos := make([]*JobInfo, len(parts))
	for s, part := range parts {
		var err error
		if infos[s], err = cl.clients[s].JobStatus(part); err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// mergeJobInfos folds the shards' snapshots of one cluster job into
// one: the shard IDs joined, the merged state, summed counters, the
// first shard error, the earliest creation and start, and the last
// finish once every shard finished.
func mergeJobInfos(infos []*JobInfo) *JobInfo {
	m := *infos[0]
	ids := []string{m.ID}
	for _, info := range infos[1:] {
		ids = append(ids, info.ID)
		m.State = mergeJobState(m.State, info.State)
		m.RowsDecrypted += info.RowsDecrypted
		m.StepsDone += info.StepsDone
		m.RevealedPairs += info.RevealedPairs
		m.ResultRows += info.ResultRows
		if m.Err == "" {
			m.Err = info.Err
		}
		m.CreatedUnix = min(m.CreatedUnix, info.CreatedUnix)
		if m.StartedUnix == 0 || (info.StartedUnix != 0 && info.StartedUnix < m.StartedUnix) {
			m.StartedUnix = info.StartedUnix
		}
		if m.FinishedUnix != 0 && info.FinishedUnix != 0 {
			m.FinishedUnix = max(m.FinishedUnix, info.FinishedUnix)
		} else {
			m.FinishedUnix = 0
		}
	}
	m.ID = strings.Join(ids, ",")
	return &m
}

// mergeJobState is the state of a job split in two: failed if either
// part failed, done or queued if both are, and otherwise running.
func mergeJobState(a, b string) string {
	switch {
	case a == wire.JobFailed || b == wire.JobFailed:
		return wire.JobFailed
	case a == b:
		return a
	}
	return wire.JobRunning
}
