package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/wire"
)

// This file is the async job subsystem: joins submitted as jobs outlive
// the connection that submitted them. SJ.Dec's pairing wall makes a
// join seconds-to-minutes of server work, and before jobs that work
// existed only as long as one TCP connection stayed open — a disconnect
// threw the pairings away.
//
// Execution model. ALL join work — synchronous Join requests and
// submitted jobs alike — is a joinTask run by the one executor
// (runTask) on one bounded worker pool fed by a fair FIFO queue
// (tasks run in arrival order). The pool size is the number of joins
// executing at once, for both kinds; the queue is the only global
// admission gate: a join of either kind arriving at a full queue is
// shed with wire.CodeOverloaded — bounded latency, typed retry, no
// unbounded backlog of latent pairing work. Sync joins additionally
// pass their connection's in-flight cap first (see admitJoin). A bad
// token fails its job: only the worker running a task decodes it.
//
// Job lifecycle: queued → running → done|failed. A completed job's
// result (or failure) is spooled through internal/store before the job
// is marked terminal, so once JobStatus reports done the result
// survives server restart; queued and running jobs are NOT durable — a
// restart forgets them and clients see CodeUnknownJob, the signal to
// resubmit. Finished jobs are reaped after a TTL.

// defaultJobQueueDepth bounds the join task queue. Each queued join is
// minutes of latent CPU, so the bound is modest.
const defaultJobQueueDepth = 64

// defaultJobTTL is how long a finished job's result is retained for
// attachment before the reaper deletes it.
const defaultJobTTL = time.Hour

// joinTask is one unit of join work on the pool. The executor knows
// nothing about who asked: a synchronous join's task streams each batch
// to the submitting connection (session.joinTask), an async job's
// collects them for the spool (Server.jobTask).
type joinTask struct {
	jr *wire.JoinRequest
	// begin runs on the worker that picked the task up, before any join
	// work.
	begin func()
	// progress is the engine's per-step hook; nil when nobody polls.
	progress func(engine.JoinProgress)
	// cancel stops the drain when closed; nil means never.
	cancel <-chan struct{}
	// sink receives every converted result batch, in order.
	sink func([]wire.JoinedRow) error
	// finish runs exactly once: after the drain with its outcome, or —
	// without begin — with errShuttingDown for a task still queued when
	// the server closes.
	finish func(revealed int, err error)
}

var (
	errJoinCancelled = errors.New("join cancelled")
	errShuttingDown  = errors.New("server shutting down")
)

// job is the server-side state of one submitted join: its one record,
// the JobInfo that JobStatus answers with and the store keeps, plus
// what only this process needs. Mutable fields are guarded by mu; done
// is closed exactly once, when the job reaches a terminal state, and is
// what AttachJob waiters block on.
//
// Lock order: Server.jobMu strictly before job.mu. reapJobs is the
// only path holding both — it iterates the table under jobMu and
// briefly takes each job's mu to read its terminal state. Every other
// path takes exactly one of the two: handleSubmit, lookupJob, pinJob,
// unpinJob and jobGauges take only jobMu; snapshot, finishJob and
// jobTask's hooks take only the job's mu. Since no path acquires jobMu
// while holding any job's mu, the pair cannot deadlock; new code must
// preserve that — never call a jobMu-taking helper with a job's mu
// held.
type job struct {
	// created is the submit time at full precision, for the job-duration
	// histogram; zero for a job recovered from the store.
	created time.Time

	// attachers counts in-flight handleAttach streams of this job. It
	// is guarded by Server.jobMu — NOT mu — because the reaper decides
	// under jobMu whether a job may be deleted, and the pin must be
	// atomic with the table lookup (see pinJob). A pinned job (and its
	// store spool) survives reaping until the last attach unpins it.
	attachers int

	mu   sync.Mutex
	info wire.JobInfo
	rows []wire.JoinedRow // in-memory result of a done job the store does not hold
	// durable reports that the store holds the job's record (and, for a
	// done job, its spool), so attaches read the spool and the reaper
	// deletes the record.
	durable bool

	done chan struct{}
}

// snapshot returns a copy of the job's record.
func (j *job) snapshot() *wire.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := j.info
	return &info
}

// SetJobWorkers bounds the join worker pool: the goroutines executing
// sync joins and async jobs. n <= 0 restores the default
// (max(2, GOMAXPROCS) — at least two so one long job cannot block all
// synchronous traffic on a single-core host). Call before Serve.
func (s *Server) SetJobWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n < 2 {
			n = 2
		}
	}
	s.jobWorkers = n
}

// SetJobTTL bounds how long a finished job's result is retained for
// attachment; past it the reaper deletes the job from memory and from
// the store's spool. d == 0 restores the default (one hour); d < 0
// disables reaping. Call before Serve.
func (s *Server) SetJobTTL(d time.Duration) {
	if d == 0 {
		d = defaultJobTTL
	}
	s.jobTTL = d
}

// startJobPool creates the task queue and starts the workers and the
// TTL reaper. Called once, from Serve; the goroutines live in s.wg so
// Close waits for them after the connections drain.
func (s *Server) startJobPool() {
	s.poolOnce.Do(func() {
		if s.jobWorkers <= 0 {
			s.SetJobWorkers(0)
		}
		if s.jobTTL == 0 {
			s.jobTTL = defaultJobTTL
		}
		s.taskQueue = make(chan joinTask, s.jobQueueDepth)
		for i := 0; i < s.jobWorkers; i++ {
			s.wg.Add(1)
			go s.joinWorker()
		}
		if s.jobTTL > 0 {
			s.wg.Add(1)
			go s.jobReaper()
		}
	})
}

// joinWorker executes queued join tasks until shutdown. In-flight work
// always finishes — Close half-closes connections on the read side
// only, so a running join still delivers its terminal frames.
func (s *Server) joinWorker() {
	defer s.wg.Done()
	for {
		select {
		case t := <-s.taskQueue:
			s.met.JoinQueueDepth.Dec()
			s.runTask(t)
		case <-s.done:
			return
		}
	}
}

// testHookRunTask, when not nil, is called by runTask before anything
// else, on the worker that took the task. Tests set it to hold a worker
// busy for as long as they need; it is nil in production.
var testHookRunTask func()

// runTask is the one join executor: it parses the request, opens the
// engine stream, drains it into the task's sink and reports the outcome
// to the task's finish.
func (s *Server) runTask(t joinTask) {
	if testHookRunTask != nil {
		testHookRunTask()
	}
	t.begin()
	spec, err := s.joinSpecFrom(t.jr)
	if err != nil {
		t.finish(0, err)
		return
	}
	spec.Progress = t.progress
	stream, err := s.eng.OpenJoin(t.jr.TableA, t.jr.TableB, spec)
	if err != nil {
		t.finish(0, err)
		return
	}
	err = drainJoin(stream, t)
	// Whatever ended the drain — EOF, cancel, engine error, a sink whose
	// peer died — closing the stream puts the leakage observed so far in
	// the ledger before finish reports the outcome. What it added, if
	// anything, is persisted after the report, so the fsync delays no
	// reply; merges commute, so concurrent joins append in any order.
	stream.Close()
	t.finish(stream.RevealedPairs(), err)
	if merges := stream.Trace().Merges; s.store != nil && len(merges) > 0 {
		if err := s.store.RecordLedger(merges); err != nil {
			s.logf("persisting leakage ledger: %v", err)
		}
	}
}

// drainJoin pulls the stream to exhaustion, handing each batch to the
// task's sink, unless the task is cancelled first.
func drainJoin(stream *engine.JoinStream, t joinTask) error {
	for {
		select {
		case <-t.cancel:
			return errJoinCancelled
		default:
		}
		rows, err := stream.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := t.sink(rows); err != nil {
			return err
		}
	}
}

// enqueueJoin offers a task to the queue without blocking. False means
// the task was not accepted — the queue is full or the server is
// shutting down — and the caller must shed or abort it.
func (s *Server) enqueueJoin(t joinTask) bool {
	if s.taskQueue == nil {
		return false
	}
	select {
	case <-s.done:
		return false
	default:
	}
	// The gauge is a sum of atomic adds — one Inc per accepted send, one
	// Dec per receive — so no interleaving of enqueuers, workers and the
	// shutdown drain can leave it off the queue's length once they are
	// quiet. Counting before the send (and taking it back on refusal)
	// keeps the receiver's Dec from ever running first.
	s.met.JoinQueueDepth.Inc()
	select {
	case s.taskQueue <- t:
		return true
	default:
		s.met.JoinQueueDepth.Dec()
		return false
	}
}

// drainTasks finishes queued tasks unrun while Close waits for
// connections and workers to finish: sync joins get their terminal
// error frame — without it a session blocked in reqs.Wait on a queued
// sync join (whose worker already exited) would deadlock the shutdown —
// and queued jobs fail so attached waiters unblock. Once stop is closed
// it fails what is still queued (only detached jobs can remain: a
// queued sync join implies a live session, and those have all
// finished) and closes drained.
func (s *Server) drainTasks(stop, drained chan struct{}) {
	defer close(drained)
	for {
		select {
		case t := <-s.taskQueue:
			s.failQueued(t)
		case <-stop:
			for {
				select {
				case t := <-s.taskQueue:
					s.failQueued(t)
				default:
					return
				}
			}
		}
	}
}

// failQueued finishes a task received from the queue during shutdown
// without running it.
func (s *Server) failQueued(t joinTask) {
	s.met.JoinQueueDepth.Dec()
	t.finish(0, errShuttingDown)
}

// newJobID returns a fresh random job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: sampling job ID: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// lookupJob resolves a job ID; nil when unknown (never submitted,
// reaped, or lost to a restart before completion).
func (s *Server) lookupJob(id string) *job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[id]
}

// pinJob resolves a job ID and marks the job attached in the same
// jobMu critical section, so the TTL reaper cannot delete the job —
// or, worse, its store spool out from under a concurrent
// ReadJobSpool — between an attach's lookup and its streaming. Callers
// must pair a non-nil return with unpinJob.
func (s *Server) pinJob(id string) *job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j := s.jobs[id]
	if j != nil {
		j.attachers++
	}
	return j
}

// unpinJob releases an attach's pin. A job that outlived its TTL only
// because it was pinned is collected by the reaper's next tick.
func (s *Server) unpinJob(j *job) {
	s.jobMu.Lock()
	j.attachers--
	s.jobMu.Unlock()
}

// handleSubmit registers and enqueues an async join, answering with the
// queued job's JobInfo. Nothing is decoded: the worker running the job
// parses it, and a malformed request fails the job. A full queue sheds
// the submit with wire.CodeOverloaded — retry-safe: nothing was
// enqueued and no job ID exists.
func (ss *session) handleSubmit(id uint64, sub *wire.SubmitRequest) error {
	s := ss.srv
	if sub.Join == nil {
		return ss.sendErr(id, errors.New("server: submit carries no join"))
	}
	jobID, err := newJobID()
	if err != nil {
		return ss.sendErr(id, err)
	}
	now := time.Now()
	j := &job{
		created: now,
		info: wire.JobInfo{
			ID: jobID, State: wire.JobQueued,
			TableA: sub.Join.TableA, TableB: sub.Join.TableB,
			CreatedUnix: now.Unix(),
		},
		done: make(chan struct{}),
	}
	s.jobMu.Lock()
	s.jobs[jobID] = j
	s.jobMu.Unlock()
	if !s.enqueueJoin(s.jobTask(j, sub.Join)) {
		s.jobMu.Lock()
		delete(s.jobs, jobID)
		s.jobMu.Unlock()
		s.shed(ss, id, "join queue full")
		return nil
	}
	s.met.JobsSubmitted.Inc()
	s.logf("job %s submitted: %q x %q", jobID, sub.Join.TableA, sub.Join.TableB)
	return ss.send(&wire.Frame{ID: id, Job: j.snapshot()})
}

// handleAttach blocks until the job terminates, then (re-)streams its
// result exactly like a synchronous join: batch frames bounded by the
// row and byte budgets, then a summary with the job's sigma(q). Any
// number of connections may attach to the same job, before or after it
// completes, and each gets the identical stream.
func (ss *session) handleAttach(id uint64, jobID string) error {
	s := ss.srv
	// Pin, not lookup: without the pin the TTL reaper can DeleteJob the
	// spool while this attach is between lookup and ReadJobSpool, failing
	// the stream with a raw spool read error instead of a typed
	// unknown-job. Pinned jobs are deferred to a later reaper tick.
	j := s.pinJob(jobID)
	if j == nil {
		return ss.sendUnknownJob(id, jobID)
	}
	defer s.unpinJob(j)
	select {
	case <-j.done:
	case <-s.done:
		return ss.sendErr(id, errors.New("server shutting down"))
	case <-ss.closed:
		return nil // client hung up while waiting; nothing to stream to
	}
	j.mu.Lock()
	errMsg, durable := j.info.Err, j.durable
	rows, revealed := j.rows, j.info.RevealedPairs
	j.mu.Unlock()
	if errMsg != "" {
		return ss.sendErr(id, fmt.Errorf("job %s failed: %s", jobID, errMsg))
	}
	// A durable job's spool goes to the wire as stored: the store checks
	// its digest, CutRows checks every row and the count the job's record
	// gives, and only then does the first frame go out, so a bad spool
	// costs the client one error frame and nothing else.
	buf := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(buf)
	var rec []byte
	want := len(rows)
	if durable {
		var err error
		if rec, want, err = s.store.ReadJobSpool(jobID, *buf); err != nil {
			return ss.sendErr(id, err)
		}
	} else {
		rec = wire.AppendRows((*buf)[:0], rows)
	}
	*buf = rec
	b, err := wire.CutRows(rec, want, s.batch)
	if err != nil {
		return ss.sendErr(id, fmt.Errorf("job %s result: %w", jobID, err))
	}
	sent, err := ss.sendBatches(id, &b)
	if err != nil {
		ss.sendErr(id, fmt.Errorf("streaming result: %v", err))
		return err
	}
	s.logf("job %s attached: streamed %d rows, %d revealed pairs", jobID, sent, revealed)
	return ss.send(&wire.Frame{ID: id, Summary: &wire.JoinSummary{RevealedPairs: revealed}})
}

func (ss *session) sendUnknownJob(id uint64, jobID string) error {
	return ss.send(&wire.Frame{
		ID:   id,
		Err:  fmt.Sprintf("unknown job %q (never submitted, expired, or lost before completion)", jobID),
		Code: wire.CodeUnknownJob,
	})
}

// jobTask is the pool task of one async job: the batches are collected,
// and finish spools the completed result durably and only then marks
// the job terminal — so a client that observes "done" can rely on the
// result surviving a restart. The progress hook publishes the engine's
// counters so JobStatus polls see them live.
func (s *Server) jobTask(j *job, jr *wire.JoinRequest) joinTask {
	var rows []wire.JoinedRow
	running := false
	return joinTask{
		jr: jr,
		begin: func() {
			j.mu.Lock()
			j.info.State = wire.JobRunning
			j.info.StartedUnix = time.Now().Unix()
			j.mu.Unlock()
			s.met.JobsRunning.Inc()
			running = true
		},
		progress: func(p engine.JoinProgress) {
			j.mu.Lock()
			j.info.RowsDecrypted = p.RowsDecrypted
			j.info.StepsDone = p.StepsDone
			j.info.RevealedPairs = p.RevealedPairs
			j.mu.Unlock()
		},
		sink: func(batch []wire.JoinedRow) error {
			rows = append(rows, batch...)
			return nil
		},
		finish: func(revealed int, err error) {
			if running {
				s.met.JobsRunning.Dec()
			}
			s.finishJob(j, rows, revealed, err)
		},
	}
}

// finishJob makes a job terminal: done with its result rows, or failed
// with err. The terminal record is committed to the store first (a
// failed job's too, so even the error outcome survives a restart), and
// only then published and attached waiters woken.
func (s *Server) finishJob(j *job, rows []wire.JoinedRow, revealed int, err error) {
	j.mu.Lock()
	info := j.info
	j.mu.Unlock()
	info.FinishedUnix = time.Now().Unix()
	if err != nil {
		info.State, info.Err, rows = wire.JobFailed, err.Error(), nil
	} else {
		info.State, info.ResultRows, info.RevealedPairs = wire.JobDone, len(rows), revealed
	}
	durable := false
	if s.store != nil {
		// Non-fatal: the job is still served from memory for this
		// process's life; only restart durability is lost.
		if serr := s.store.CommitJob(info, rows); serr != nil {
			s.logf("job %s: spooling %s result: %v", info.ID, info.State, serr)
		} else {
			durable = true
		}
	}
	j.mu.Lock()
	j.info, j.durable = info, durable
	if !durable {
		j.rows = rows // attaches of a durable job re-read the spool; no double-buffering
	}
	j.mu.Unlock()
	close(j.done)
	s.met.JobSeconds.Observe(time.Since(j.created).Seconds())
	if err != nil {
		s.met.JobsFailed.Inc()
		s.logf("job %s failed: %v", info.ID, err)
		return
	}
	s.met.JobsCompleted.Inc()
	s.logf("job %s done: %d result rows, %d revealed pairs", info.ID, len(rows), revealed)
}

// recoverJobs re-registers the store's spooled jobs at startup so
// completed (and failed) jobs survive a server restart, each with the
// record it had, and any later connection can still attach.
// Queued/running jobs of the previous process were never spooled and
// are simply gone — their IDs answer CodeUnknownJob, the client's
// signal to resubmit.
func (s *Server) recoverJobs(st *store.Store) {
	infos := st.Jobs()
	for _, info := range infos {
		j := &job{info: info, durable: true, done: make(chan struct{})}
		close(j.done)
		s.jobs[info.ID] = j
	}
	if len(infos) > 0 {
		s.logf("store %s: %d spooled job(s) recovered", st.Dir(), len(infos))
	}
}

// jobReaper deletes finished jobs older than the TTL, from memory and
// from the store's spool, bounding the job table and the data
// directory. Runs until shutdown.
func (s *Server) jobReaper() {
	defer s.wg.Done()
	tick := s.jobTTL / 4
	if tick < time.Second {
		tick = time.Second
	}
	if tick > time.Minute {
		tick = time.Minute
	}
	for {
		select {
		case <-s.done:
			return
		case <-time.After(tick):
		}
		s.reapJobs(time.Now().Add(-s.jobTTL))
	}
}

// reapJobs removes every finished, unpinned job whose completion
// predates cutoff. Jobs with in-flight attaches (attachers > 0) are
// deferred to a later tick — deleting their spool mid-stream would
// fail the attach with a raw read error. Lock order here is the
// canonical jobMu → j.mu (see the job struct comment): each j.mu is
// taken briefly inside the jobMu-guarded sweep, and no other path
// nests the two, so the nesting cannot deadlock.
func (s *Server) reapJobs(cutoff time.Time) {
	type reaped struct {
		id      string
		durable bool
	}
	var expired []reaped
	s.jobMu.Lock()
	for id, j := range s.jobs {
		if j.attachers > 0 {
			continue // pinned by an in-flight attach; defer to a later tick
		}
		j.mu.Lock()
		finished, durable := j.info.FinishedUnix, j.durable
		j.mu.Unlock()
		if finished != 0 && time.Unix(finished, 0).Before(cutoff) {
			expired = append(expired, reaped{id: id, durable: durable})
			delete(s.jobs, id)
		}
	}
	s.jobMu.Unlock()
	for _, j := range expired {
		if j.durable && s.store != nil {
			if err := s.store.DeleteJob(j.id); err != nil {
				s.logf("reaping job %s: %v", j.id, err)
			}
		}
		s.met.JobsReaped.Inc()
		s.logf("job %s reaped after TTL", j.id)
	}
}

// jobGauges snapshots the job table for the health report.
func (s *Server) jobGauges() (queued, running, stored int) {
	if s.taskQueue != nil {
		queued = len(s.taskQueue)
	}
	s.jobMu.Lock()
	stored = len(s.jobs)
	s.jobMu.Unlock()
	return queued, int(s.met.JobsRunning.Value()), stored
}
