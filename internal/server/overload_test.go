package server

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdJoinWorkers makes every join worker wait, as it takes a task and
// before the task begins, until release is called; taken receives once
// per task taken while held. Call it before the server starts, so its
// workers see the hook, and release (it may be called more than once)
// before the server closes: a deferred release runs before the
// test's cleanups, and the cleanup registered here clears the hook
// after the server's own.
func holdJoinWorkers(t *testing.T) (taken <-chan struct{}, release func()) {
	ch := make(chan struct{}, 16)
	gate := make(chan struct{})
	testHookRunTask = func() {
		select {
		case ch <- struct{}{}:
		default:
		}
		<-gate
	}
	t.Cleanup(func() { testHookRunTask = nil })
	var once sync.Once
	return ch, func() { once.Do(func() { close(gate) }) }
}

// waitTaken waits for a held worker to take a task.
func waitTaken(t *testing.T, taken <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-taken:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for the worker to take %s", what)
	}
}

// TestOverloadedServerShedsJoins pins the admission-control contract of
// the one gate every join passes, the worker pool's bounded queue: with
// one worker and a queue of one, a sync join occupies the worker, a
// submitted job fills the queue, and from then on a sync join and a
// submit are shed alike — same typed retryable code, same counter —
// until the work drains, the slot frees, and no goroutine leaks.
func TestOverloadedServerShedsJoins(t *testing.T) {
	taken, release := holdJoinWorkers(t)
	defer release()
	srv := New(nil)
	srv.SetJobWorkers(1)
	srv.jobQueueDepth = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	const rows = 12
	uploadPair(t, c, rows)
	none := securejoin.Selection{}

	before := runtime.NumGoroutine()

	// Join 1: admitted and taken by the only worker, which holds it
	// until the sheds below are done.
	stream1 := openJoin(t, dialCluster(t, c, addr), "L", "R")
	waitTaken(t, taken, "join 1")
	if h, err := c.Health(); err != nil || h.InflightJoins != 1 || h.JobsQueued != 0 {
		t.Fatalf("health with join 1 on the worker = %+v, %v; want 1 in flight, 0 queued", h, err)
	}

	// Job 2: accepted into the queue's one place, behind join 1.
	job2, err := c.SubmitJoinQuery("L", "R", none, none, client.JoinOpts{})
	if err != nil {
		t.Fatalf("submit into the empty queue: %v", err)
	}
	if h, err := c.Health(); err != nil || h.JobsQueued != 1 {
		t.Fatalf("health after the queued submit = %+v, %v; want 1 job queued", h, err)
	}

	// The queue is full: both kinds of join work are shed, with the same
	// code, and neither queues nor executes.
	if _, _, err := c.JoinWith("L", "R", none, none, client.JoinOpts{}); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("sync join at a full queue: %v, want client.ErrOverloaded", err)
	}
	if _, err := c.SubmitJoinQuery("L", "R", none, none, client.JoinOpts{}); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("submit at a full queue: %v, want client.ErrOverloaded", err)
	}
	if got := srv.met.ShedTotal.Value(); got != 2 {
		t.Fatalf("shed counter = %d, want 2 (one sync join, one submit)", got)
	}

	// Everything admitted completes, in arrival order.
	release()
	n := 0
	for {
		batch, err := stream1.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("admitted join: %v", err)
		}
		n += len(batch)
	}
	if n != rows {
		t.Fatalf("admitted join returned %d rows, want %d", n, rows)
	}
	if got, _, err := c.WaitJob(job2.ID); err != nil || len(got) != rows {
		t.Fatalf("queued job returned %d rows, %v; want %d", len(got), err, rows)
	}

	// The slot frees: gauges return to zero and the next join is admitted.
	waitFor(t, "the gauges to drain", func() bool {
		h, err := c.Health()
		return err == nil && h.InflightJoins == 0 && h.JobsQueued == 0
	})
	if _, _, err := c.JoinWith("L", "R", none, none, client.JoinOpts{}); err != nil {
		t.Fatalf("join after load drained: %v", err)
	}
	if got := srv.met.ShedTotal.Value(); got != 2 {
		t.Fatalf("shed counter = %d after recovery, want 2", got)
	}

	// Shed requests must not leave request goroutines (or engine worker
	// pools) behind. Finished goroutines unwind asynchronously, so poll.
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestQueueDepthGaugeSettlesAtZero pins sj_server_join_queue_depth to
// the queue it describes: after a burst of sync joins and submits
// racing one worker for the queue, and again after Close fails what was
// still queued, the gauge reads exactly 0 — every accepted send is
// matched by one receive, whichever of the worker and the shutdown
// drain made it.
func TestQueueDepthGaugeSettlesAtZero(t *testing.T) {
	srv := New(nil)
	srv.SetJobWorkers(1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	uploadPair(t, c, 1)
	none := securejoin.Selection{}

	const burst = 4
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, _, err := c.JoinWith("L", "R", none, none, client.JoinOpts{}); err != nil {
				t.Errorf("sync join: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			info, err := c.SubmitJoinQuery("L", "R", none, none, client.JoinOpts{})
			if err == nil {
				_, _, err = c.WaitJob(info.ID)
			}
			if err != nil {
				t.Errorf("submitted join: %v", err)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "the server to go quiet", func() bool {
		h, err := c.Health()
		return err == nil && h.JobsQueued == 0 && h.JobsRunning == 0 && h.InflightJoins == 0
	})
	if got := srv.met.JoinQueueDepth.Value(); got != 0 {
		t.Fatalf("queue depth gauge = %d over an empty, idle queue", got)
	}

	// Shutdown with work still queued: one job takes the worker, the
	// rest are failed by the drain, not run.
	for i := 0; i < 3; i++ {
		if _, err := c.SubmitJoinQuery("L", "R", none, none, client.JoinOpts{}); err != nil {
			t.Fatalf("submit %d before close: %v", i, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.met.JoinQueueDepth.Value(); got != 0 {
		t.Fatalf("queue depth gauge = %d after Close drained the queue", got)
	}
}

// TestPerConnectionJoinCapSheds: one connection's in-flight join cap
// sheds its second join while another connection is unaffected.
func TestPerConnectionJoinCapSheds(t *testing.T) {
	taken, release := holdJoinWorkers(t)
	defer release()
	srv := New(nil)
	srv.maxJoinsPerConn = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	uploadPair(t, c, 24)

	done := make(chan error, 1)
	go func() {
		_, _, err := c.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
		done <- err
	}()
	waitTaken(t, taken, "join 1")

	if _, _, err := c.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{}); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("second join on the capped connection: %v, want client.ErrOverloaded", err)
	}
	release()
	// The cap is per connection: a second client joins concurrently
	// (under its own keys, so it matches nothing — but it executes).
	c2 := dial(t, addr)
	if _, _, err := c2.JoinWith("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{}); err != nil {
		t.Fatalf("join on a second connection: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted join: %v", err)
	}
}

// TestAttachShedsAtConnectionCap: an attach holds one of its
// connection's join slots while it waits for its job, so with a cap of
// one a second attach on that connection is shed, typed, while the
// first, not a join, leaves sj_server_joins_inflight at 0 and streams
// the job's result once the job runs.
func TestAttachShedsAtConnectionCap(t *testing.T) {
	taken, release := holdJoinWorkers(t)
	defer release()
	srv := New(nil)
	srv.maxJoinsPerConn = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	const rows = 4
	uploadPair(t, c, rows)
	job, err := c.SubmitJoinQuery("L", "R", nil, nil, client.JoinOpts{})
	if err != nil {
		t.Fatal(err)
	}
	waitTaken(t, taken, "the job")

	wc := wireConn(t, srv)
	if err := wc.Send(&wire.Request{ID: 1, Attach: job.ID}); err != nil {
		t.Fatal(err)
	}
	if f, _ := answer(t, wc, &wire.Request{ID: 2, Attach: job.ID}); f.ID != 2 || f.Code != wire.CodeOverloaded {
		t.Fatalf("second attach on the capped connection: %+v, want a shed", f)
	}
	if got := srv.met.InflightJoins.Value(); got != 0 {
		t.Fatalf("sj_server_joins_inflight = %d with only an attach waiting, want 0", got)
	}
	release()
	n := 0
	for {
		var f wire.Frame
		if err := wc.Recv(&f); err != nil {
			t.Fatal(err)
		}
		if f.Batch != nil {
			n += len(f.Batch.Rows)
			continue
		}
		if f.ID != 1 || f.Summary == nil || n != rows {
			t.Fatalf("first attach: terminal frame %+v after %d rows, want a summary after %d", f, n, rows)
		}
		return
	}
}

// TestWithRetrySucceedsAfterShed drives client.WithRetry end-to-end
// against a genuinely overloaded server: a job holds the only worker of
// a rendezvous queue, the first sync join sheds, and a retry after the
// job finished succeeds.
func TestWithRetrySucceedsAfterShed(t *testing.T) {
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
	const rows = 12
	uploadPair(t, c, rows)
	none := securejoin.Selection{}

	// Occupy the only worker; the first attempt arrives while it is held
	// and must shed, and the worker is let go before the second.
	if _, err := c.SubmitJoinQuery("L", "R", none, none, client.JoinOpts{}); err != nil {
		t.Fatal(err)
	}
	waitTaken(t, taken, "the job")
	attempts := 0
	var results []client.JoinResult
	// The job may outlast WithRetry's four attempts: call it again until
	// one gets past the shed.
	waitFor(t, "a retried join past the shed", func() bool {
		err = client.WithRetry(func() error {
			attempts++
			if attempts == 2 {
				release()
			}
			var err error
			results, _, err = c.JoinWith("L", "R", none, none, client.JoinOpts{})
			return err
		})
		return !errors.Is(err, client.ErrOverloaded)
	})
	if err != nil {
		t.Fatalf("retried join: %v", err)
	}
	if attempts < 2 {
		t.Fatalf("join succeeded on attempt %d; the first should have shed", attempts)
	}
	if len(results) != rows {
		t.Fatalf("retried join returned %d rows, want %d", len(results), rows)
	}
	if got := srv.met.ShedTotal.Value(); got != uint64(attempts-1) {
		t.Fatalf("shed counter = %d, want one per failed attempt (%d)", got, attempts-1)
	}
}

// TestClusterRetriesShedShard: every plan step reaches the wire
// through a Cluster, which retries a shard that sheds it on that shard
// alone — a join step, or with async a job's submit (SubmitPlan). Each
// server has one worker and a rendezvous queue, and a job
// over an empty table pair holds the worker, so every shard's first
// attempt sheds; once all have shed the workers go free, and the
// retries return the rows and sigma of an unloaded run. An error other
// than a shed comes back from the first attempt.
func TestClusterRetriesShedShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d-shard async=%v", shards, async), func(t *testing.T) {
				testClusterRetriesShedShard(t, shards, async)
			})
		}
	}
}

func testClusterRetriesShedShard(t *testing.T, shards int, async bool) {
	taken, release := holdJoinWorkers(t)
	defer release()
	var srvs []*Server
	var addrs []string
	for i := 0; i < shards; i++ {
		srv := New(nil)
		srv.SetJobWorkers(1)
		srv.jobQueueDepth = 0
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs, addrs = append(srvs, srv), append(addrs, addr)
	}
	c := dial(t, addrs[0])
	cl := dialCluster(t, c, addrs...)
	const rows = 12
	uploadPair(t, cl, rows)
	for _, name := range []string{"E1", "E2"} {
		if err := cl.Upload(name, nil); err != nil {
			t.Fatal(err)
		}
	}
	schema := func(name string) sql.TableSchema {
		return sql.TableSchema{Name: name, JoinColumn: "k", Attrs: map[string]int{"a": 0}}
	}
	cat, err := sql.NewCatalog(schema("L"), schema("R"), schema("X"), schema("Y"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cat.Compile("SELECT * FROM L JOIN R ON L.k = R.k")
	if err != nil {
		t.Fatal(err)
	}
	// run executes p as a join, or with async as a submitted job that
	// WaitJob collects.
	run := func(p *sql.Plan) (string, int, error) {
		var out []string
		emit := func(a, b int, pa, pb []byte) {
			out = append(out, fmt.Sprintf("%d|%d|%s|%s", a, b, pa, pb))
		}
		var revealed int
		var err error
		if async {
			var info *client.JobInfo
			if info, err = cl.SubmitPlan(p); err == nil {
				var results []client.JoinResult
				results, revealed, err = cl.WaitJob(info.ID)
				for _, r := range results {
					emit(r.RowA, r.RowB, r.PayloadA, r.PayloadB)
				}
			}
		} else {
			revealed, err = cl.ExecutePlan(p, func(r sql.ResultRow) error {
				emit(r.Rows[0], r.Rows[1], r.Payloads[0], r.Payloads[1])
				return nil
			})
		}
		sort.Strings(out)
		return strings.Join(out, "\n"), revealed, err
	}

	// Occupy every worker, then run the plan: each shard sheds, and the
	// workers are let go only once all of them have.
	for _, addr := range addrs {
		if _, err := dial(t, addr).SubmitJoinQuery("E1", "E2", nil, nil, client.JoinOpts{}); err != nil {
			t.Fatal(err)
		}
		waitTaken(t, taken, "the occupying job")
	}
	type result struct {
		rows     string
		revealed int
		err      error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.rows, r.revealed, r.err = run(plan)
		done <- r
	}()
	// Every shard sheds while the workers are held: a join step, and
	// SubmitPlan's submits, reach the shards at once.
	for _, srv := range srvs {
		waitFor(t, "the shard to shed", func() bool { return srv.met.ShedTotal.Value() > 0 })
	}
	release()
	got := <-done
	if got.err != nil {
		t.Fatalf("plan over shed shards: %v", got.err)
	}
	if async {
		// Each shard's submit was retried on its own, after its first
		// backoff (25-75 ms), by which time the workers were free: one
		// shed per shard.
		for s, srv := range srvs {
			if n := srv.met.ShedTotal.Value(); n != 1 {
				t.Errorf("shard %d shed the submit %d times, want 1", s, n)
			}
		}
	}
	wantRows, wantRevealed, err := run(plan)
	if err != nil {
		t.Fatalf("unloaded run: %v", err)
	}
	if strings.Count(wantRows, "\n") != rows-1 {
		t.Fatalf("unloaded run returned\n%s\nwant %d rows", wantRows, rows)
	}
	if got.rows != wantRows || got.revealed != wantRevealed {
		t.Fatalf("retried run: %d pairs, rows\n%s\nunloaded run: %d pairs, rows\n%s", got.revealed, got.rows, wantRevealed, wantRows)
	}

	// A join of tables no server holds fails with one attempt's frames
	// (a join, or a submit, a status poll and an attach) after the one
	// frame of each shed attempt: a worker still winding down the run
	// above may shed the first.
	perAttempt := uint64(1)
	if async {
		perAttempt = 3
	}
	frames, sheds := make([]uint64, shards), make([]uint64, shards)
	for s, srv := range srvs {
		frames[s], sheds[s] = srv.met.FramesIn.Value(), srv.met.ShedTotal.Value()
	}
	unknown, err := cat.Compile("SELECT * FROM X JOIN Y ON X.k = Y.k")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(unknown); err == nil || errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("join of unknown tables: %v, want a non-shed error", err)
	}
	for s, srv := range srvs {
		shed := srv.met.ShedTotal.Value() - sheds[s]
		if got := srv.met.FramesIn.Value() - frames[s]; got != shed+perAttempt {
			t.Errorf("shard %d received %d request frames for the failed join with %d shed, want %d (no retry)", s, got, shed, shed+perAttempt)
		}
	}
}

// TestIdleTimeoutClosesIdleConnection: an idle connection is closed
// after the timeout with a typed notice, while work in flight keeps it
// alive past the deadline. The timeout is configured only after the
// upload, because client-side row encryption between requests is an
// idle gap by design — the test's setup must not be idle-closed.
func TestIdleTimeoutClosesIdleConnection(t *testing.T) {
	srv := New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, addr)
	uploadPair(t, c, 16)
	none := securejoin.Selection{}
	join := func() time.Duration {
		t.Helper()
		start := time.Now()
		if _, _, err := c.JoinWith("L", "R", none, none, client.JoinOpts{}); err != nil {
			t.Fatalf("join under idle timeout: %v", err)
		}
		return time.Since(start)
	}

	// A join outlasting the idle timeout is not idleness: the deadline
	// expiring while its request executes just re-arms, and the join
	// completes. How long a join takes depends on the machine, so one
	// untimed join sets the timeout to a quarter of its duration, and
	// the timed join must outlast it or the re-arm path went untested.
	timeout := join() / 4
	srv.SetIdleTimeout(timeout)
	if took := join(); took <= timeout {
		t.Fatalf("join took %v, within the %v idle timeout: the deadline never expired during it", took, timeout)
	}

	// True idleness: no request after the join. The server sends the
	// CodeIdleTimeout notice and closes; the client must fail typed.
	waitFor(t, "the idle close", func() bool {
		return srv.met.IdleClosed.Value() == 1 && srv.met.ActiveConns.Value() == 0
	})
	err = c.Ping()
	if err == nil {
		t.Fatal("ping on an idle-closed connection succeeded")
	}
	if !errors.Is(err, client.ErrIdleClosed) {
		t.Fatalf("ping after idle close: %v, want client.ErrIdleClosed", err)
	}
}

// TestHealthOverPing: the health report rides the Ping ack.
func TestHealthOverPing(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	uploadPair(t, c, 2)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h == nil {
		t.Fatal("no health payload on the ping ack")
	}
	if !h.Ready {
		t.Error("server not ready")
	}
	if h.Tables != 2 {
		t.Errorf("health reports %d tables, want 2", h.Tables)
	}
	if h.ActiveConns != 1 {
		t.Errorf("health reports %d connections, want 1", h.ActiveConns)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", h.UptimeSeconds)
	}
}
