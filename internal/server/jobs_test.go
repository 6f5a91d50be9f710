package server

import (
	"bytes"
	"errors"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/wire"
)

// sortResults orders join results by (RowA, RowB) so streams that
// arrive batched differently compare deterministically.
func sortResults(rows []client.JoinResult) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].RowA != rows[j].RowA {
			return rows[i].RowA < rows[j].RowA
		}
		return rows[i].RowB < rows[j].RowB
	})
}

// sameResults asserts two drained joins are identical: row pairs,
// payload bytes, and sigma.
func sameResults(t *testing.T, got, want []client.JoinResult, gotRevealed, wantRevealed int) {
	t.Helper()
	if gotRevealed != wantRevealed {
		t.Fatalf("revealed pairs = %d, want %d", gotRevealed, wantRevealed)
	}
	if len(got) != len(want) {
		t.Fatalf("result rows = %d, want %d", len(got), len(want))
	}
	sortResults(got)
	sortResults(want)
	for i := range got {
		if got[i].RowA != want[i].RowA || got[i].RowB != want[i].RowB {
			t.Fatalf("row %d: (%d,%d), want (%d,%d)",
				i, got[i].RowA, got[i].RowB, want[i].RowA, want[i].RowB)
		}
		if !bytes.Equal(got[i].PayloadA, want[i].PayloadA) ||
			!bytes.Equal(got[i].PayloadB, want[i].PayloadB) {
			t.Fatalf("row %d: payload bytes differ", i)
		}
	}
}

// TestJobLifecycleMatchesSyncJoin submits the same query both ways: the
// async job must produce identical rows, payload bytes and sigma as the
// synchronous join, report a terminal done status with the result
// counts, and stream identically on a second attach.
func TestJobLifecycleMatchesSyncJoin(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	uploadIndexedTestTables(t, c)

	selA := securejoin.Selection{0: [][]byte{[]byte("Web Application")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}
	want, wantRevealed, err := c.JoinWith("Teams", "Employees", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}

	info, err := c.SubmitJoinQuery("Teams", "Employees", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" {
		t.Fatal("submit ack carries no job ID")
	}
	switch info.State {
	case wire.JobQueued, wire.JobRunning, wire.JobDone:
	default:
		t.Fatalf("submit ack state = %q", info.State)
	}

	got, gotRevealed, err := c.WaitJob(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want, gotRevealed, wantRevealed)

	st, err := c.JobStatus(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.JobDone {
		t.Fatalf("job state after wait = %q, want done", st.State)
	}
	if st.ResultRows != len(want) || st.RevealedPairs != wantRevealed {
		t.Fatalf("status reports %d rows / %d pairs, want %d / %d",
			st.ResultRows, st.RevealedPairs, len(want), wantRevealed)
	}
	if st.RowsDecrypted == 0 || st.StepsDone == 0 {
		t.Fatalf("no progress recorded: %d rows decrypted, %d steps", st.RowsDecrypted, st.StepsDone)
	}

	// A completed job can be re-attached any number of times.
	again, againRevealed, err := c.WaitJob(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, again, want, againRevealed, wantRevealed)

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.JobsStored == 0 {
		t.Fatal("health reports no stored jobs after a completed job")
	}
}

// jobsTestCatalog is the catalog over uploadIndexedTestTables' tables,
// plus an Offices table for multi-step plans.
func jobsTestCatalog(t *testing.T) *sql.Catalog {
	t.Helper()
	cat, err := sql.NewCatalog(
		sql.TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0}},
		sql.TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0}},
		sql.TableSchema{Name: "Offices", JoinColumn: "Team"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// executePlan runs plan synchronously on cl and returns its rows as
// join results, with the summed revealed pairs.
func executePlan(t *testing.T, cl *client.Cluster, plan *sql.Plan) ([]client.JoinResult, int) {
	t.Helper()
	var rows []client.JoinResult
	revealed, err := cl.ExecutePlan(plan, func(r sql.ResultRow) error {
		rows = append(rows, client.JoinResult{RowA: r.Rows[0], RowB: r.Rows[1], PayloadA: r.Payloads[0], PayloadB: r.Payloads[1]})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, revealed
}

// TestSubmitPlanMatchesExecutePlan: a one-step plan submitted as a job
// on a one-shard cluster yields the rows, payload bytes and sigma
// ExecutePlan does, under a job ID the server's own Client collects,
// and a multi-step plan is rejected before any job exists.
func TestSubmitPlanMatchesExecutePlan(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	uploadIndexedTestTables(t, c)
	cl := dialCluster(t, c, addr)
	cat := jobsTestCatalog(t)
	if _, err := cl.SyncCatalog(cat); err != nil {
		t.Fatal(err)
	}

	multi, err := cat.Compile(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		JOIN Offices ON Offices.Team = Teams.Key`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitPlan(multi); err == nil {
		t.Fatal("multi-step plan submitted as one job")
	}
	if h, err := c.Health(); err != nil || h.JobsQueued+h.JobsRunning+h.JobsStored != 0 {
		t.Fatalf("health after the rejected submit = %+v, %v; want no job", h, err)
	}

	plan, err := cat.Compile(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		WHERE Teams.Name = 'Web Application'`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != sql.Prefiltered {
		t.Fatalf("plan strategy = %v, want prefiltered (the job must carry SSE tokens)", plan.Strategy)
	}
	want, wantRevealed := executePlan(t, cl, plan)
	if len(want) != 2 {
		t.Fatalf("ExecutePlan returned %d rows, want 2", len(want))
	}
	info, err := cl.SubmitPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, gotRevealed, err := c.WaitJob(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want, gotRevealed, wantRevealed)
}

// TestClusterJobIDs: a two-shard job's ID is the shards' job IDs joined
// with a comma. Polled, it merges the shards' states and counters;
// collected, it returns the rows and summed sigma of a synchronous
// ExecutePlan. An ID naming jobs the shards do not know fails typed,
// and a malformed one is refused before anything is sent.
func TestClusterJobIDs(t *testing.T) {
	a1, a2 := startServer(t), startServer(t)
	c := dial(t, a1)
	cl := dialCluster(t, c, a1, a2)
	uploadIndexedTestTables(t, cl)
	cat := jobsTestCatalog(t)
	if _, err := cl.SyncCatalog(cat); err != nil {
		t.Fatal(err)
	}
	plan, err := cat.Compile(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		WHERE Employees.Role = 'Tester'`)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRevealed := executePlan(t, cl, plan)
	if len(want) != 2 {
		t.Fatalf("ExecutePlan returned %d rows, want 2", len(want))
	}

	info, err := cl.SubmitPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if parts := strings.Split(info.ID, ","); len(parts) != 2 || parts[0] == parts[1] {
		t.Fatalf("cluster job ID %q is not two shard job IDs", info.ID)
	}
	var st *client.JobInfo
	waitFor(t, "the cluster job to finish", func() bool {
		st, err = cl.JobStatus(info.ID)
		return err != nil || st.State == wire.JobDone || st.State == wire.JobFailed
	})
	if err != nil || st.State != wire.JobDone || st.ID != info.ID {
		t.Fatalf("status = %+v, %v; want done under ID %q", st, err, info.ID)
	}
	if st.ResultRows != len(want) || st.RevealedPairs != wantRevealed {
		t.Fatalf("status counts %d rows, %d pairs; ExecutePlan %d rows, %d pairs",
			st.ResultRows, st.RevealedPairs, len(want), wantRevealed)
	}
	got, gotRevealed, err := cl.WaitJob(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want, gotRevealed, wantRevealed)

	const unknown = "deadbeefdeadbeef,0123456789abcdef"
	if _, err := cl.JobStatus(unknown); !errors.Is(err, client.ErrUnknownJob) {
		t.Fatalf("status of unknown cluster job: %v, want client.ErrUnknownJob", err)
	}
	if _, _, err := cl.WaitJob(unknown); !errors.Is(err, client.ErrUnknownJob) {
		t.Fatalf("wait on unknown cluster job: %v, want client.ErrUnknownJob", err)
	}

	// On a closed cluster any request fails for the closed connection;
	// a malformed ID must fail on its own terms, so nothing was sent.
	cl.Close()
	closed := func(err error) bool { return errors.Is(err, client.ErrClosed) || errors.Is(err, net.ErrClosed) }
	if _, err := cl.JobStatus(unknown); !closed(err) {
		t.Fatalf("status on a closed cluster: %v, want a closed-connection error", err)
	}
	for _, bad := range []string{
		"deadbeefdeadbeef",                   // one part for two shards
		"deadbeef,deadbeef,deadbeef",         // three parts
		"deadbeefdeadbeef,",                  // empty part
		",deadbeefdeadbeef",                  // empty part
		"deadbeefdeadbeef,not-hex",           // non-hex part
		"DEADBEEFDEADBEEF,0123456789abcdef",  // server IDs are lower case
		"deadbeefdeadbeef, 0123456789abcdef", // stray space
	} {
		_, err := cl.JobStatus(bad)
		_, _, werr := cl.WaitJob(bad)
		for _, err := range []error{err, werr} {
			if err == nil || closed(err) || !strings.Contains(err.Error(), "job id") {
				t.Errorf("job ID %q: %v, want a refusal before any request", bad, err)
			}
		}
	}
}

// TestJobStatusUnknownJob: an ID that was never submitted answers the
// typed unknown-job error on both the poll and the attach path.
func TestJobStatusUnknownJob(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.JobStatus("deadbeefdeadbeef"); !errors.Is(err, client.ErrUnknownJob) {
		t.Fatalf("status of unknown job: %v, want client.ErrUnknownJob", err)
	}
	if _, _, err := c.WaitJob("deadbeefdeadbeef"); !errors.Is(err, client.ErrUnknownJob) {
		t.Fatalf("wait on unknown job: %v, want client.ErrUnknownJob", err)
	}
}

// TestJobAttachAfterDisconnect is the detachment proof: the submitting
// connection closes right after the submit ack, and a brand-new
// connection (same key file) attaches and drains the full result.
func TestJobAttachAfterDisconnect(t *testing.T) {
	addr := startServer(t)
	c1, err := client.Dial(addr, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := c1.Keys()
	uploadIndexedTestTables(t, c1)

	selA := securejoin.Selection{0: [][]byte{[]byte("Web Application")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}
	want, wantRevealed, err := c1.JoinWith("Teams", "Employees", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c1.SubmitJoinQuery("Teams", "Employees", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Hang up while the job is (at best) just starting; the job must
	// keep executing without its submitter.
	c1.Close()

	c2, err := client.DialWithKeys(addr, keys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	got, gotRevealed, err := c2.WaitJob(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want, gotRevealed, wantRevealed)
}

// TestJobSurvivesRestart is the durability proof: a completed job's
// spooled result is recovered by a brand-new server process on the same
// data dir, and a fresh connection attaches and receives the identical
// rows, payload bytes and sigma. JobStatus of it and of a failed job
// answers the pre-restart JobInfo field for field.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, addr1 := startDurableServer(t, dir)
	c1, err := client.Dial(addr1, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := c1.Keys()
	uploadIndexedTestTables(t, c1)

	selA := securejoin.Selection{0: [][]byte{[]byte("Web Application")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}
	info, err := c1.SubmitJoinQuery("Teams", "Employees", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Draining the job proves it reached done — and done implies the
	// result was spooled durably first (spool-before-done invariant).
	want, wantRevealed, err := c1.WaitJob(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A failed job's record survives too.
	failed, err := c1.SubmitJoinQuery("Teams", "Nowhere", selA, selB, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.WaitJob(failed.ID); err == nil {
		t.Fatal("a join with an unknown table did not fail")
	}
	before := map[string]*wire.JobInfo{}
	for _, id := range []string{info.ID, failed.ID} {
		if before[id], err = c1.JobStatus(id); err != nil {
			t.Fatal(err)
		}
		if before[id].CreatedUnix == 0 || before[id].StartedUnix == 0 || before[id].FinishedUnix == 0 {
			t.Fatalf("job %s before restart: %+v, want every timestamp set", id, before[id])
		}
	}
	c1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: nothing carried over but the directory.
	srv2, addr2 := startDurableServer(t, dir)
	c2, err := client.DialWithKeys(addr2, keys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })

	// JobStatus answers the record each job had, field for field.
	for id, want := range before {
		st, err := c2.JobStatus(id)
		if err != nil {
			t.Fatalf("status after restart: %v", err)
		}
		if *st != *want {
			t.Fatalf("job %s after restart: %+v, want %+v", id, st, want)
		}
	}
	if before[info.ID].State != wire.JobDone || before[failed.ID].State != wire.JobFailed {
		t.Fatalf("states %q and %q, want done and failed", before[info.ID].State, before[failed.ID].State)
	}
	got, gotRevealed, err := c2.WaitJob(info.ID)
	if err != nil {
		t.Fatalf("attach after restart: %v", err)
	}
	sameResults(t, got, want, gotRevealed, wantRevealed)

	// Queued/running jobs do not survive: an ID the new process never
	// recovered answers the typed unknown-job error (resubmit signal).
	if _, err := c2.JobStatus("0123456789abcdef"); !errors.Is(err, client.ErrUnknownJob) {
		t.Fatalf("unrecovered job: %v, want client.ErrUnknownJob", err)
	}
	_ = srv2
}

// TestSubmitShedsWhenQueueFull pins the composition with admission
// control: one worker, a rendezvous queue (depth 0), a long job holding
// the worker — every submit AND every sync join meanwhile sheds typed
// and retryable, nothing queues, and a retried submit lands once the
// worker frees up.
func TestSubmitShedsWhenQueueFull(t *testing.T) {
	taken, release := holdJoinWorkers(t)
	defer release()
	srv := New(nil)
	srv.SetJobWorkers(1)
	srv.jobQueueDepth = 0
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	uploadPair(t, c, 12)

	// Job A occupies the only worker, held until the sheds are done.
	infoA, err := c.SubmitJoinQuery("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitTaken(t, taken, "job A")

	// With the worker busy and nowhere to queue, both kinds of join
	// work shed immediately.
	if _, err := c.SubmitJoinQuery("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{}); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("submit while worker busy: %v, want client.ErrOverloaded", err)
	}
	if _, _, err := c.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{}); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("sync join while worker busy: %v, want client.ErrOverloaded", err)
	}
	if srv.met.ShedTotal.Value() < 2 {
		t.Fatalf("shed counter = %d, want >= 2", srv.met.ShedTotal.Value())
	}
	release()

	// A shed submit created no job and is safe to retry verbatim; the
	// resubmission is accepted once job A is done, which may take more
	// than one WithRetry.
	var infoC *client.JobInfo
	waitFor(t, "a retried submit past the shed", func() bool {
		err = client.WithRetry(func() error {
			var rerr error
			infoC, rerr = c.SubmitJoinQuery("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
			return rerr
		})
		return !errors.Is(err, client.ErrOverloaded)
	})
	if err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	rows, _, err := c.WaitJob(infoC.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("retried job returned %d rows, want 12", len(rows))
	}
	if _, _, err := c.WaitJob(infoA.ID); err != nil {
		t.Fatalf("job A: %v", err)
	}
}

// TestReapDeletesDurableRecords: reaping a finished job deletes its
// record from the store, a failed job's as well as a done one's, so a
// reaped job does not come back at the next restart.
func TestReapDeletesDurableRecords(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurableServer(t, dir)
	c := dial(t, addr)
	uploadPair(t, c, 2)
	none := securejoin.Selection{}
	for _, b := range []string{"R", "Nowhere"} {
		info, err := c.SubmitJoinQuery("L", b, none, none, client.JoinOpts{})
		if err != nil {
			t.Fatal(err)
		}
		c.WaitJob(info.ID)
	}
	if n := len(srv.store.Jobs()); n != 2 {
		t.Fatalf("store holds %d jobs, want the done and the failed one", n)
	}
	// An attach pins its job until its handler returns, a moment after
	// the client has the answer.
	waitFor(t, "both records to be reaped", func() bool {
		srv.reapJobs(time.Now().Add(time.Hour))
		return len(srv.store.Jobs()) == 0
	})
}

// TestCloseFailsQueuedJobsDurably: a job still queued when the server
// closes fails with "server shutting down", and the failure is in the
// store before Close returns: a restart on the same directory answers
// it as failed, beside the job that was running and finished.
func TestCloseFailsQueuedJobsDurably(t *testing.T) {
	taken, release := holdJoinWorkers(t)
	defer release()
	dir := t.TempDir()
	srv, addr := startDurableServer(t, dir, func(s *Server) { s.SetJobWorkers(1) })
	c := dial(t, addr)
	uploadPair(t, c, 2)
	none := securejoin.Selection{}
	running, err := c.SubmitJoinQuery("L", "R", none, none, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitTaken(t, taken, "the running job")
	queued, err := c.SubmitJoinQuery("L", "R", none, none, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	waitFor(t, "the queued job to fail", func() bool {
		return srv.lookupJob(queued.ID).snapshot().State == wire.JobFailed
	})
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	_, addr2 := startDurableServer(t, dir)
	c2 := dial(t, addr2)
	for id, want := range map[string]string{running.ID: wire.JobDone, queued.ID: wire.JobFailed} {
		st, err := c2.JobStatus(id)
		if err != nil {
			t.Fatalf("job %s after restart: %v", id, err)
		}
		if st.State != want || want == wire.JobFailed && !strings.Contains(st.Err, "shutting down") {
			t.Fatalf("job %s after restart: %+v, want %s", id, st, want)
		}
	}
}

// TestJobReaperExpires: a finished job past its TTL disappears — the
// poll answers unknown-job and the memory entry is gone.
func TestJobReaperExpires(t *testing.T) {
	srv := New(nil)
	srv.SetJobTTL(50 * time.Millisecond) // reaper ticks at the 1s floor
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	uploadPair(t, c, 2)

	info, err := c.SubmitJoinQuery("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.WaitJob(info.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to be reaped", func() bool {
		_, err := c.JobStatus(info.ID)
		return errors.Is(err, client.ErrUnknownJob)
	})
	if got := srv.met.JobsReaped.Value(); got == 0 {
		t.Fatalf("reaped counter = %d, want > 0", got)
	}
}
