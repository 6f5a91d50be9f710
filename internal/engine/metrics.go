package engine

import (
	"repro/internal/metrics"
)

// Metrics is the engine's instrumentation surface. Every field is
// nil-safe (see internal/metrics), so an uninstrumented Server — the
// zero Metrics value — records nothing and pays one nil check per
// event. The SJ.Dec histogram is the headline series: pairings are the
// dominant cost of every query, and this is where a regression in the
// pairing wall first becomes visible.
type Metrics struct {
	// JoinsStarted counts join streams opened; JoinsCompleted counts
	// streams terminated (drained, failed or closed early), so
	// started-completed is the number currently executing.
	JoinsStarted   *metrics.Counter
	JoinsCompleted *metrics.Counter
	// RowsDecrypted counts rows run through SJ.Dec (build and probe
	// sides alike); DecSeconds is the latency of each SJ.Dec phase (one
	// parallel decrypt of a build side or of one probe batch).
	RowsDecrypted *metrics.Counter
	DecSeconds    *metrics.Histogram
	// JoinSeconds is the open-to-termination wall time per join stream.
	JoinSeconds *metrics.Histogram
	// RevealedPairs is, per table, how many pairs of the ledger's closure
	// have an endpoint in it (see leakage.Ledger.Touching): revealing a
	// pair again changes nothing, and recovery replays the persisted
	// ledger into it.
	RevealedPairs *metrics.GaugeVec
}

// NewMetrics creates the engine metric set against reg (which may be
// nil for unregistered metrics).
func NewMetrics(reg *metrics.Registry) Metrics {
	return Metrics{
		JoinsStarted:   metrics.NewCounter(reg, "sj_joins_started_total", "join streams opened"),
		JoinsCompleted: metrics.NewCounter(reg, "sj_joins_completed_total", "join streams terminated (drained, failed or closed early)"),
		RowsDecrypted:  metrics.NewCounter(reg, "sj_rows_decrypted_total", "rows run through SJ.Dec pairings"),
		DecSeconds:     metrics.NewHistogram(reg, "sj_dec_seconds", "latency of one SJ.Dec decrypt phase (build side or probe batch)", nil),
		JoinSeconds:    metrics.NewHistogram(reg, "sj_join_seconds", "wall time of one join stream, open to termination", nil),
		RevealedPairs:  metrics.NewGaugeVec(reg, "sj_revealed_pairs", "pairs of the leakage closure with an endpoint in each table", "table"),
	}
}

// Instrument attaches engine metrics registered in reg. Call before
// serving queries (metric pointers are read without synchronization by
// concurrent joins); typically the wire server does this at
// construction. Instrumenting twice against the same registry panics
// on the duplicate names, as it would double-count.
func (s *Server) Instrument(reg *metrics.Registry) {
	s.met = NewMetrics(reg)
}
