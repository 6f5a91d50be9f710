package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
)

// serverCounters are the program's own counters the traced run reads at
// the boundaries of its production operations.
var serverCounters = []string{
	"sj_rows_decrypted_total",
	"sj_decrypt_cache_hits_total",
	"sj_decrypt_cache_misses_total",
	"sj_sql_plan_cache_hits_total",
	"sj_sql_plan_cache_misses_total",
}

// counts accumulates counter deltas over the intervals it is told about.
type counts map[string]float64

func (c counts) around(e *env, f func()) {
	before := make(counts, len(serverCounters))
	for _, name := range serverCounters {
		before[name] = e.counter(name)
	}
	f()
	for _, name := range serverCounters {
		c[name] += e.counter(name) - before[name]
	}
}

// wireCounters reads the batch-byte and frame counters once they have
// stopped moving: the server counts a frame after writing it, which can
// be after the client has consumed it and gone on. Only production
// operations cross the server's connection, so these are read around
// the whole loop, not around each operation.
func (e *env) wireCounters() [2]float64 {
	read := func() [2]float64 {
		return [2]float64{e.counter("sj_server_batch_bytes_total"), e.counter("sj_server_frames_out_total")}
	}
	v := read()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		next := read()
		if next == v {
			break
		}
		v = next
	}
	return v
}

// share is part/(part+rest), and 0 when neither happened.
func share(part, rest float64) float64 {
	if part+rest == 0 {
		return 0
	}
	return part / (part + rest)
}

// pairing sums, over paired executions of the same operations, the
// production latency and the unrolled span time.
type pairing struct {
	n             int
	prod, unr     time.Duration
	rows          int // result rows of the production operations
	revealed      int
	requestBytes  int
	candRows, all int
}

// unroll performs operation i under its own span, then, outside that
// span, the replay of its engine steps.
func (e *env) unroll(tr *tracer, i int) (opResult, *tracedRunner, time.Duration, error) {
	tr.op++
	idx := tr.begin("bench.op")
	var r opResult
	var run *tracedRunner
	var err error
	if e.w.unrolled != nil {
		r, err = e.w.unrolled(e, tr, i)
	} else {
		r, run, err = e.unrolledQuery(tr, i%len(e.w.queries))
	}
	tr.end()
	d := tr.spans[idx].dur()
	if err == nil && run != nil {
		err = run.replay()
	}
	return r, run, d, err
}

// runTraced produces the per-layer metrics of one workload: the layer
// kernels in isolation, then the workload's reference join as an async
// job, a sync join and (where the operation is no query) an unrolled
// query, then production operations paired with their unrolled twins
// until the run's time is up.
func runTraced(w *workload, cfg runConfig) (*runResult, error) {
	e, _, err := w.setupRepeated(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if e.cat == nil {
		if err := e.syncCatalog(); err != nil {
			return nil, err
		}
	}
	if err := e.warm(); err != nil {
		return nil, err
	}
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	m := map[string]float64{"client.attach_rows_per_s": 0}
	if err := runKernels(e, cfg.outDir, m); err != nil {
		return nil, fmt.Errorf("%s kernels: %w", w.name, err)
	}

	tr := newTracer()
	attempted, failed := 0, 0
	fail := func(what string, err error) {
		if failed++; failed <= 3 {
			fmt.Fprintf(os.Stderr, "%s %s failed: %v\n", w.name, what, err)
		}
	}

	// The reference join: query 0 of the workload through the ad-hoc
	// entry points, as an async job (drained, then re-attached) and as
	// a sync join, alternating, and unrolled where the workload's own
	// operation is no query.
	var queries pairing
	q0 := e.w.queries[0]
	a, b := q0.tables[0], q0.tables[1]
	opts := client.JoinOpts{Prefilter: w.indexed}
	var jobTimes, syncTimes []float64
	var ref opResult
	for rep, refStart := 0, time.Now(); rep < 3 && (rep == 0 || time.Since(refStart) < budget/6); rep++ {
		attempted += 2
		t := time.Now()
		info, err := e.cli.SubmitJoinQuery(a, b, q0.selection(a), q0.selection(b), opts)
		var rows []client.JoinResult
		var revealed int
		if err == nil {
			rows, revealed, err = e.cli.WaitJob(info.ID)
		}
		jobTimes = append(jobTimes, ms(time.Since(t)))
		if err == nil {
			err = check(e.pairResult(0, rows, revealed))
		}
		if err != nil {
			fail("reference job", err)
		} else if rep == 0 {
			const attaches = 5
			t = time.Now()
			for i := 0; i < attaches && err == nil; i++ {
				_, _, err = e.cli.WaitJob(info.ID)
			}
			if err != nil {
				fail("re-attach", err)
			}
			m["client.attach_rows_per_s"] = float64(attaches*len(rows)) / time.Since(t).Seconds()
		}
		t = time.Now()
		ref, err = e.joinWith(0, opts)
		syncTime := time.Since(t)
		syncTimes = append(syncTimes, ms(syncTime))
		if err == nil {
			err = check(ref)
		}
		if err != nil {
			fail("reference join", err)
			continue
		}
		if w.unrolled == nil {
			continue // the loop below unrolls this workload's queries
		}
		attempted++
		idx := tr.begin("bench.op")
		u, run, err := e.unrolledQuery(tr, 0)
		tr.end()
		if err == nil {
			err = run.replay()
		}
		if err == nil {
			err = check(u)
		}
		if err != nil {
			fail("unrolled reference join", err)
			continue
		}
		queries.add(syncTime, tr.spans[idx].dur(), ref, run)
	}
	m["server.job_overhead_ms"] = median(jobTimes) - median(syncTimes)
	fmt.Fprintf(os.Stderr, "%s: reference join %s x %s as a job %.1f ms, synchronously %.1f ms\n", w.name, a, b, jobTimes, syncTimes)
	refTotals := tr.totals()

	// Production operations, each followed by its unrolled twin. The
	// program's counters are read around the production ones only: the
	// unrolled twins drive the same engine.
	delta := make(counts)
	defer w.limitProcs()()
	wireBefore := e.wireCounters()
	var loop pairing
	for i := 0; i == 0 || i%w.window != 0 || time.Since(start) < budget; i++ {
		var r opResult
		var err error
		var prod time.Duration
		delta.around(e, func() {
			t := time.Now()
			r, err = w.op(e, w.warmup+i)
			prod = time.Since(t)
		})
		attempted++
		if err == nil {
			err = check(r)
		}
		if err != nil {
			fail("operation", err)
			continue
		}
		u, run, unr, err := e.unroll(tr, w.warmup+i)
		if err == nil {
			err = check(u)
		}
		if err == nil && u.acc != r.acc {
			err = fmt.Errorf("unrolled operation returned %d rows, the production one %d", u.acc.rows, r.acc.rows)
		}
		if err != nil {
			fail("unrolled operation", err)
			continue
		}
		loop.add(prod, unr, r, nil)
		if run != nil {
			queries.add(prod, unr, r, run)
		}
	}
	if loop.n == 0 || queries.n == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	wireAfter := e.wireCounters()

	tt := tr.totals()
	nq := float64(queries.n)
	replay := tt.dur["sse.search"] + tt.dur["securejoin.precompute"] + tt.dur["securejoin.dec"] + tt.dur["securejoin.hashjoin"]
	// Frames cross the pipe in replay and ingest operations too; when
	// the loop ran those, the queries' share is the reference join's.
	wireTime := tt.dur["wire.request"] + tt.dur["wire.send"] + tt.dur["wire.recv"]
	if w.unrolled != nil {
		wireTime = refTotals.dur["wire.request"] + refTotals.dur["wire.send"] + refTotals.dur["wire.recv"]
	}
	m["engine.join_ms"] = ms(tt.dur["engine.join"]) / nq
	m["engine.self_ms"] = ms(tt.dur["engine.join"]-replay) / nq
	m["sql.spec_ms"] = ms(tt.dur["sql.spec"]) / float64(tt.count["sql.spec"])
	m["sql.execute_self_ms"] = ms(tt.self["sql.execute"]) / nq
	m["sql.steps_per_op"] = float64(tt.count["sql.spec"]) / nq
	m["wire.request_bytes_per_op"] = float64(queries.requestBytes) / nq
	m["sse.candidates_share"] = share(float64(queries.candRows), float64(queries.all-queries.candRows))
	m["client.exec_overhead_ms"] = ms(queries.prod-(queries.unr-wireTime)) / nq

	n := float64(loop.n)
	m["engine.rows_decrypted_per_op"] = delta["sj_rows_decrypted_total"] / n
	m["engine.rows_decrypted_per_result_row"] = 0
	if loop.rows > 0 {
		m["engine.rows_decrypted_per_result_row"] = delta["sj_rows_decrypted_total"] / float64(loop.rows)
	}
	m["engine.deccache_hit_share"] = share(delta["sj_decrypt_cache_hits_total"], delta["sj_decrypt_cache_misses_total"])
	m["engine.revealed_pairs_per_op"] = float64(loop.revealed) / n
	_, closure := e.srv.Engine().ObservedLeakage()
	m["engine.leakage_closure_pairs"] = float64(closure.Len())
	m["sql.plan_cache_hit_share"] = share(delta["sj_sql_plan_cache_hits_total"], delta["sj_sql_plan_cache_misses_total"])
	m["wire.result_bytes_per_op"] = (wireAfter[0] - wireBefore[0]) / n
	m["server.frames_out_per_op"] = (wireAfter[1] - wireBefore[1]) / n
	m["server.shed_total"] = e.counter("sj_server_shed_total")
	m["trace.unrolled_op_ms"] = ms(loop.unr) / n
	m["trace.unrolled_vs_wire_ratio"] = float64(loop.unr) / float64(loop.prod)
	inLoop := func(name string) time.Duration { return tt.dur[name] - refTotals.dur[name] }
	m["trace.securejoin_share"] = float64(inLoop("securejoin.precompute")+inLoop("securejoin.dec")+inLoop("securejoin.hashjoin")) / float64(loop.unr)

	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: traced %d operation pairs and the reference join in %.2fs, %d spans\n",
		w.name, loop.n, time.Since(start).Seconds(), len(tr.spans))
	return newRunResult(cfg.spec.PerLayer, m, attempted, failed)
}

func (p *pairing) add(prod, unr time.Duration, r opResult, run *tracedRunner) {
	p.n++
	p.prod += prod
	p.unr += unr
	p.rows += r.acc.rows
	p.revealed += r.revealed
	if run != nil {
		p.requestBytes += run.reqBytes
		p.candRows += run.candRows
		p.all += run.tableRows
	}
}
