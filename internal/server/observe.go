package server

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// This file is the server's observability and admission-control
// surface: the wire-layer metric set, the load-shedding limits that
// keep unbounded concurrent pairing work from toppling the process,
// and the health report served on Ping acks and /healthz.
//
// Admission is shed-first because join work is extreme: a single join
// costs thousands of bn256 pairings, so every queued join is minutes of
// latent CPU. All join work passes one gate, admitJoin, on the read
// loop: a sync join or an attach takes a slot under its connection's
// in-flight cap, and a sync join — like a submitted job — then a place
// in the worker pool's bounded FIFO queue (jobs.go); whatever does not
// fit is rejected with a typed retryable error (wire.CodeOverloaded),
// which keeps latency bounded and lets clients back off — see
// client.WithRetry.

// serverMetrics is the wire-layer metric set, registered next to the
// engine's in one registry. All fields are nil-safe no-ops when the
// server is built without a registry (never the case in practice:
// NewWithStore always creates one).
type serverMetrics struct {
	ActiveConns   *metrics.Gauge
	ConnsTotal    *metrics.Counter
	ReqSeconds    *metrics.HistogramVec // by request type
	FramesIn      *metrics.Counter
	FramesOut     *metrics.Counter
	BatchBytes    *metrics.Counter
	InflightJoins *metrics.Gauge
	ShedTotal     *metrics.Counter
	IdleClosed    *metrics.Counter

	// Async job subsystem (see jobs.go): queue depth of the shared join
	// worker pool, job state counters, and submit-to-completion latency.
	JoinQueueDepth *metrics.Gauge
	JobsSubmitted  *metrics.Counter
	JobsRunning    *metrics.Gauge
	JobsCompleted  *metrics.Counter
	JobsFailed     *metrics.Counter
	JobsReaped     *metrics.Counter
	JobSeconds     *metrics.Histogram
}

func newServerMetrics(reg *metrics.Registry) serverMetrics {
	return serverMetrics{
		ActiveConns:   metrics.NewGauge(reg, "sj_server_connections_active", "live client connections"),
		ConnsTotal:    metrics.NewCounter(reg, "sj_server_connections_total", "client connections accepted"),
		ReqSeconds:    metrics.NewHistogramVec(reg, "sj_server_request_seconds", "request handling latency by request type", "type", nil),
		FramesIn:      metrics.NewCounter(reg, "sj_server_frames_in_total", "request frames received"),
		FramesOut:     metrics.NewCounter(reg, "sj_server_frames_out_total", "response frames sent"),
		BatchBytes:    metrics.NewCounter(reg, "sj_server_batch_bytes_total", "join result payload bytes streamed in batches"),
		InflightJoins: metrics.NewGauge(reg, "sj_server_joins_inflight", "joins currently admitted and executing"),
		ShedTotal:     metrics.NewCounter(reg, "sj_server_shed_total", "requests rejected by admission control"),
		IdleClosed:    metrics.NewCounter(reg, "sj_server_idle_closed_total", "connections closed by the idle timeout"),

		JoinQueueDepth: metrics.NewGauge(reg, "sj_server_join_queue_depth", "join tasks (sync and async) waiting in the worker pool queue"),
		JobsSubmitted:  metrics.NewCounter(reg, "sj_server_jobs_submitted_total", "async jobs accepted by Submit"),
		JobsRunning:    metrics.NewGauge(reg, "sj_server_jobs_running", "async jobs currently executing on the worker pool"),
		JobsCompleted:  metrics.NewCounter(reg, "sj_server_jobs_completed_total", "async jobs finished successfully"),
		JobsFailed:     metrics.NewCounter(reg, "sj_server_jobs_failed_total", "async jobs terminated with an error"),
		JobsReaped:     metrics.NewCounter(reg, "sj_server_jobs_reaped_total", "finished jobs deleted by the TTL reaper"),
		JobSeconds:     metrics.NewHistogram(reg, "sj_server_job_seconds", "async job submit-to-completion wall time", nil),
	}
}

// Registry returns the server's metric registry — engine, store and
// wire-layer series together. sjbench scrapes it after figure runs so
// perf trajectories and production dashboards read one measurement
// path; the HTTP /metrics endpoint renders it.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// SetIdleTimeout closes connections that sit completely idle — no
// request in flight, none arriving — longer than d, after sending a
// connection-level wire.CodeIdleTimeout notice so the client fails
// typed (client.ErrIdleClosed) instead of with a bare EOF. d <= 0
// disables the timeout (the default). The timeout bounds the gap
// between requests; a connection streaming or executing work is never
// idle-closed. May be changed at runtime; a live connection picks the
// new value up with its next request.
func (s *Server) SetIdleTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.idleTimeout.Store(int64(d))
}

// admitJoin admits, without blocking, the join work of one request: a
// submit's job goes to the worker pool's queue; a sync join or an
// attach first takes a slot under the connection's cap, then a sync
// join goes to the queue and an attach waits for its job on its own
// goroutine. What does not fit is shed. Nothing is decoded here. It
// returns the request kind whose latency it observed, if any.
func (ss *session) admitJoin(req *wire.Request) (string, error) {
	s := ss.srv
	if req.Join == nil && req.Submit != nil {
		return "submit", ss.handleSubmit(req.ID, req.Submit)
	}
	if int(ss.joins.Load()) >= s.maxJoinsPerConn {
		s.shed(ss, req.ID, "connection join cap reached")
		return "", nil
	}
	ss.joins.Add(1)
	ss.reqs.Add(1)
	if req.Join == nil {
		go func() {
			defer func() { ss.joins.Add(-1); ss.reqs.Done() }()
			started := time.Now()
			if err := ss.handleAttach(req.ID, req.Attach); err != nil {
				s.logf("request %d: writing response: %v", req.ID, err)
			}
			s.met.ReqSeconds.With("attach").Observe(time.Since(started).Seconds())
		}()
		return "", nil
	}
	s.met.InflightJoins.Inc()
	ss.registerCancel(req.ID)
	if !s.enqueueJoin(ss.joinTask(req.ID, req.Join)) {
		ss.endJoin(req.ID)
		s.shed(ss, req.ID, "join queue full")
	}
	return "", nil
}

// endJoin returns an admitted sync join's connection slot.
func (ss *session) endJoin(id uint64) {
	ss.clearCancel(id)
	ss.srv.met.InflightJoins.Dec()
	ss.joins.Add(-1)
	ss.reqs.Done()
}

// shed rejects a request with the typed overload code. The send runs
// on the read loop, so a shed flood is bounded by the same TCP
// backpressure as every other inline response.
func (s *Server) shed(ss *session, id uint64, reason string) {
	s.met.ShedTotal.Inc()
	s.logf("request %d shed: %s", id, reason)
	if err := ss.send(&wire.Frame{ID: id, Err: "server overloaded: " + reason, Code: wire.CodeOverloaded}); err != nil {
		s.logf("request %d: writing shed response: %v", id, err)
	}
}

// health snapshots the server's readiness and key gauges — the payload
// of Ping acks and of the HTTP /healthz probe.
func (s *Server) health() *wire.HealthInfo {
	ready := true
	select {
	case <-s.done:
		ready = false
	default:
	}
	queued, running, stored := s.jobGauges()
	return &wire.HealthInfo{
		Ready:         ready,
		Tables:        len(s.eng.TableStats()),
		ActiveConns:   int(s.met.ActiveConns.Value()),
		InflightJoins: int(s.met.InflightJoins.Value()),
		ShedTotal:     s.met.ShedTotal.Value(),
		RevealedPairs: uint64(s.eng.ClosurePairs()),
		UptimeSeconds: time.Since(s.started).Seconds(),
		JobsQueued:    queued,
		JobsRunning:   running,
		JobsStored:    stored,
	}
}
