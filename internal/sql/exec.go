package sql

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/engine"
)

// SpecFor compiles one pairwise join step of the plan down to the
// engine's executable JoinSpec, deriving the per-step join tokens —
// and, for a prefiltered step, the SSE search-token maps of the
// prefiltered sides — from the client's key material. A side the
// planner left on full scan gets no token map, so its query keywords
// are never revealed to the server without a corresponding speedup.
//
// Runner.RunStep is the caller: it hands the spec to a Transport, which
// opens it in process or ships it in a JoinRequest.
func (p *Plan) SpecFor(step int, keys *engine.Client) (engine.JoinSpec, error) {
	if step < 0 || step >= len(p.Steps) {
		return engine.JoinSpec{}, fmt.Errorf("sql: plan has no step %d", step)
	}
	st := &p.Steps[step]
	spec := engine.JoinSpec{
		// Key-only projections: a side whose payload the SELECT list
		// never references skips payload shipping and opening entirely.
		SkipPayloadA: st.Left.SkipPayload,
		SkipPayloadB: st.Right.SkipPayload,
	}
	if st.Strategy != Prefiltered {
		q, err := keys.NewQuery(st.Left.Sel, st.Right.Sel)
		if err != nil {
			return engine.JoinSpec{}, err
		}
		spec.Query = q
		return spec, nil
	}
	pq, err := keys.NewPrefilterQuery(st.Left.Sel, st.Right.Sel)
	if err != nil {
		return engine.JoinSpec{}, err
	}
	if !st.Left.Prefilter {
		pq.TokensA = nil
	}
	if !st.Right.Prefilter {
		pq.TokensB = nil
	}
	spec.Prefilter = pq
	return spec, nil
}

// StepRow is one decrypted result pair of a pairwise join step: the
// row numbers and opened payloads of the step's left and right tables.
type StepRow struct {
	RowL, RowR         int
	PayloadL, PayloadR []byte
}

// StepStream consumes one pairwise join step's results batch by batch.
// Next returns io.EOF after the final batch, at which point
// RevealedPairs reports the step's sigma(q) size. Close releases a
// stream early; the leakage observed up to that point stays recorded.
type StepStream interface {
	Next() ([]StepRow, error)
	Close()
	RevealedPairs() int
}

// StepInput is the runtime data Execute threads from one drained step
// into the next — the semi-join reduction.
type StepInput struct {
	// CandidatesL restricts the step's left (shared/hub) table to these
	// sorted row ids: exactly the rows the previous step matched, whose
	// identities sigma(q) already revealed to the server. Nil means no
	// restriction (the first step, or a plan with semi-join disabled).
	CandidatesL []int
}

// StepRunner executes one pairwise encrypted join of a compiled plan.
// Runner is the implementation; the interface remains so callers can
// wrap it (benchmarks count rows around each step).
type StepRunner interface {
	RunStep(p *Plan, step int, in StepInput) (StepStream, error)
}

// ResultRow is one stitched result of an executed plan: per FROM-clause
// table (Plan.Tables order), the server row number and the decrypted
// payload.
type ResultRow struct {
	Rows     []int
	Payloads [][]byte
}

// Execute runs a compiled plan through a StepRunner: the first pairwise
// join streams from the server, and every subsequent step's decrypted
// pairs are stitched into the intermediate client-side on the shared
// table's row identity. emit receives every stitched result row; the
// final step streams, so a single-join plan never materializes its
// result set. The returned count sums the revealed equality pairs
// (sigma) over all executed steps.
//
// If the intermediate result empties before the chain ends, the
// remaining steps are skipped: they could not contribute rows, and not
// running them reveals strictly less to the server.
func Execute(r StepRunner, p *Plan, emit func(ResultRow) error) (revealed int, err error) {
	if len(p.Steps) == 0 {
		return 0, errors.New("sql: plan has no join steps")
	}
	col := make(map[string]int, len(p.Tables))
	for i, t := range p.Tables {
		col[t] = i
	}
	width := len(p.Tables)

	var tuples []ResultRow
	for i := range p.Steps {
		st := &p.Steps[i]
		last := i == len(p.Steps)-1
		li, ri := col[st.Left.Table], col[st.Right.Table]

		// For stitch steps, index the intermediate by the shared (left)
		// table's row number before draining the step.
		var byRow map[int][]int // left row -> tuple positions
		var in StepInput
		if st.Stitch {
			byRow = make(map[int][]int, len(tuples))
			for ti := range tuples {
				k := tuples[ti].Rows[li]
				byRow[k] = append(byRow[k], ti)
			}
			if st.SemiJoin {
				// Semi-join reduction: the keys of byRow are exactly the
				// hub rows the previous step matched — ship them so the
				// runner decrypts only those. Execute already broke out of
				// the loop on an empty intermediate, so the list is never
				// empty here (wire encoding cannot distinguish empty from
				// absent).
				in.CandidatesL = make([]int, 0, len(byRow))
				for k := range byRow {
					in.CandidatesL = append(in.CandidatesL, k)
				}
				sort.Ints(in.CandidatesL)
			}
		}

		stream, err := r.RunStep(p, i, in)
		if err != nil {
			return revealed, err
		}
		var next []ResultRow
		for {
			batch, err := stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				stream.Close()
				return revealed, err
			}
			for _, m := range batch {
				if !st.Stitch {
					row := ResultRow{Rows: make([]int, width), Payloads: make([][]byte, width)}
					for j := range row.Rows {
						row.Rows[j] = -1
					}
					row.Rows[li], row.Payloads[li] = m.RowL, m.PayloadL
					row.Rows[ri], row.Payloads[ri] = m.RowR, m.PayloadR
					if err := emitOrCollect(emit, &next, row, last); err != nil {
						stream.Close()
						return revealed, err
					}
					continue
				}
				for _, ti := range byRow[m.RowL] {
					t := tuples[ti]
					row := ResultRow{
						Rows:     append([]int(nil), t.Rows...),
						Payloads: append([][]byte(nil), t.Payloads...),
					}
					row.Rows[ri], row.Payloads[ri] = m.RowR, m.PayloadR
					if err := emitOrCollect(emit, &next, row, last); err != nil {
						stream.Close()
						return revealed, err
					}
				}
			}
		}
		revealed += stream.RevealedPairs()
		tuples = next
		if !last && len(tuples) == 0 {
			break
		}
	}
	return revealed, nil
}

// emitOrCollect routes one stitched row: the final step emits directly
// (streaming), earlier steps collect the intermediate.
func emitOrCollect(emit func(ResultRow) error, next *[]ResultRow, row ResultRow, last bool) error {
	if last {
		return emit(row)
	}
	*next = append(*next, row)
	return nil
}

// Transport opens one compiled pairwise join wherever the step's tables
// live and returns its result stream with the payloads already opened:
// in process (EngineRunner), or over the wire scattered over a
// cluster's shards (internal/client's Cluster.Runner; one server is the
// one-shard cluster), synchronously or through each server's job
// queue.
type Transport func(tableL, tableR string, spec engine.JoinSpec) (StepStream, error)

// Runner is the one way to run a plan step: compile it with the
// client's keys, restrict its left side to the semi-join candidates,
// and hand it to the transport. How a step executes never depends on
// how it is delivered, so every transport reveals the same pairs.
type Runner struct {
	Keys *engine.Client
	Open Transport
}

func (r Runner) RunStep(p *Plan, step int, in StepInput) (StepStream, error) {
	spec, err := p.SpecFor(step, r.Keys)
	if err != nil {
		return nil, err
	}
	spec.CandidatesA = in.CandidatesL
	st := &p.Steps[step]
	return r.Open(st.Left.Table, st.Right.Table, spec)
}

// EngineRunner is the Runner over the in-process transport: the spec
// goes straight to eng.OpenJoin and result payloads are opened with the
// client's keys, so the emitted rows match what the wire transports
// deliver.
func EngineRunner(eng *engine.Server, keys *engine.Client) Runner {
	return Runner{Keys: keys, Open: func(tableL, tableR string, spec engine.JoinSpec) (StepStream, error) {
		js, err := eng.OpenJoin(tableL, tableR, spec)
		if err != nil {
			return nil, err
		}
		return &engineStepStream{js: js, keys: keys}, nil
	}}
}

// engineStepStream adapts engine.JoinStream to StepStream, decrypting
// payloads as batches arrive.
type engineStepStream struct {
	js   *engine.JoinStream
	keys *engine.Client
}

func (s *engineStepStream) Next() ([]StepRow, error) {
	rows, err := s.js.Next()
	if err != nil {
		return nil, err
	}
	out := make([]StepRow, len(rows))
	for i := range rows {
		r := &rows[i]
		pl, pr, err := s.keys.OpenRow(r)
		if err != nil {
			return nil, fmt.Errorf("sql: opening result: %w", err)
		}
		out[i] = StepRow{RowL: r.RowA, RowR: r.RowB, PayloadL: pl, PayloadR: pr}
	}
	return out, nil
}

func (s *engineStepStream) Close()             { s.js.Close() }
func (s *engineStepStream) RevealedPairs() int { return s.js.RevealedPairs() }
