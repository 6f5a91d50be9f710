// Package bench is the fixture behind cmd/sjbench's paper figures. It
// builds the paper's workload (TPC-H Orders x Customers with the
// selectivity column) inside an in-process engine.Server and times
// queries through engine.OpenJoin — the join path the system runs — so
// Figures 3 and 4 and the Section 6.5 comparison describe the program
// as served; Figure 2 times the single-row kernels as the paper defines
// them.
//
// Absolute numbers differ from the paper (a Go pairing, with assembly
// only for the amd64 field multiplications, vs the authors' optimized
// C library), so the figures compare shapes: which
// operation dominates, linearity in table size and IN-clause size, and
// slope ordering across selectivities.
package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/tpch"
	"repro/internal/zq"
)

// CryptoBenchResult is one row of Figure 2: per-row token generation,
// encryption and decryption latency for a given IN-clause size.
type CryptoBenchResult struct {
	INClauseSize int
	TokenGen     time.Duration
	Encrypt      time.Duration
	Decrypt      time.Duration
}

// MeasureCryptoOps reproduces Figure 2 for one IN-clause size t: the
// latencies of SJ.TokenGen, SJ.Enc and SJ.Dec for a single Customers
// row, each the median over reps repetitions, so one descheduled
// repetition does not move it.
func MeasureCryptoOps(t, reps int) (CryptoBenchResult, error) {
	scheme, err := securejoin.Setup(securejoin.Params{M: 1, T: t}, nil)
	if err != nil {
		return CryptoBenchResult{}, err
	}
	ds := tpch.Generate(0.0001, 1)
	c := ds.Customers[0]
	row := securejoin.Row{
		JoinValue: tpch.CustomerJoinValue(c),
		Attrs:     [][]byte{[]byte(c.Selectivity)},
	}
	inValues := make([][]byte, t)
	for i := range inValues {
		inValues[i] = []byte(fmt.Sprintf("sel-value-%d", i))
	}
	sel := securejoin.Selection{0: inValues}

	// round runs SJ.TokenGen, SJ.Enc and SJ.Dec once, timing each. It
	// times one TokenGen, not NewQuery, whose two keygens overlap.
	round := func() (r CryptoBenchResult, err error) {
		k, err := zq.RandomNonZero(nil)
		if err != nil {
			return r, err
		}
		start := time.Now()
		tk, err := scheme.TokenGen(k, sel)
		if err != nil {
			return r, err
		}
		r.TokenGen = time.Since(start)

		start = time.Now()
		ct, err := scheme.Encrypt(row)
		if err != nil {
			return r, err
		}
		r.Encrypt = time.Since(start)

		start = time.Now()
		if _, err := securejoin.Decrypt(tk, ct); err != nil {
			return r, err
		}
		r.Decrypt = time.Since(start)
		return r, nil
	}

	// One untimed round first: the fixed-base comb tables behind
	// TokenGen and Enc are built lazily on first use, and that one-time
	// set-up must not be charged to the first repetition.
	res := CryptoBenchResult{INClauseSize: t}
	if _, err := round(); err != nil {
		return res, err
	}
	var tokenGen, encrypt, decrypt []time.Duration
	for i := 0; i < reps; i++ {
		r, err := round()
		if err != nil {
			return res, err
		}
		tokenGen = append(tokenGen, r.TokenGen)
		encrypt = append(encrypt, r.Encrypt)
		decrypt = append(decrypt, r.Decrypt)
	}
	res.TokenGen = median(tokenGen)
	res.Encrypt = median(encrypt)
	res.Decrypt = median(decrypt)
	return res, nil
}

// median returns the middle of ds (the upper middle for an even
// count), or 0 for none.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Workload is the paper's evaluation fixture: a TPC-H Orders x Customers
// instance whose single filterable attribute is the selectivity column
// (Section 6.1), encrypted with SSE pre-filter indexes and uploaded into
// an in-process engine.Server — the tables the system would hold after
// two UploadIndexed calls.
type Workload struct {
	Dataset *tpch.Dataset

	keys *engine.Client
	srv  *engine.Server
}

// The engine table names of the fixture; Customers is the build side.
const (
	tableCustomers = "Customers"
	tableOrders    = "Orders"
)

// BuildWorkload generates a TPC-H instance at the given scale factor,
// encrypts it under fresh keys with IN-clause bound t and uploads it.
func BuildWorkload(scaleFactor float64, t int, seed int64) (*Workload, error) {
	keys, err := engine.NewClient(securejoin.Params{M: 1, T: t}, nil)
	if err != nil {
		return nil, err
	}
	ds := tpch.Generate(scaleFactor, seed)

	customers := make([]engine.PlainRow, len(ds.Customers))
	for i, c := range ds.Customers {
		customers[i] = engine.PlainRow{
			JoinValue: tpch.CustomerJoinValue(c),
			Attrs:     [][]byte{[]byte(c.Selectivity)},
		}
	}
	orders := make([]engine.PlainRow, len(ds.Orders))
	for i, o := range ds.Orders {
		orders[i] = engine.PlainRow{
			JoinValue: tpch.OrderJoinValue(o),
			Attrs:     [][]byte{[]byte(o.Selectivity)},
		}
	}

	srv := engine.NewServer()
	for name, rows := range map[string][]engine.PlainRow{tableCustomers: customers, tableOrders: orders} {
		tab, err := keys.EncryptTableIndexed(name, rows)
		if err != nil {
			return nil, err
		}
		if err := srv.RegisterTable(tab); err != nil {
			return nil, err
		}
	}
	return &Workload{Dataset: ds, keys: keys, srv: srv}, nil
}

// Selection returns the benchmark selection predicate for one
// selectivity label, padded with synthetic values to IN-clause size
// inSize (Figure 4 grows the IN clause while keeping the matching row
// set fixed to one selectivity class).
func Selection(label string, inSize int) securejoin.Selection {
	values := make([][]byte, 0, inSize)
	values = append(values, []byte(label))
	for len(values) < inSize {
		values = append(values, []byte(fmt.Sprintf("filler-%d", len(values))))
	}
	return securejoin.Selection{0: values}
}

// perCore is the Workers value behind every series of Figures 3 and 4
// and the Section 6.5 comparison: one SJ.Dec worker, so the seconds are
// per core — comparable across hosts and with the paper's
// single-threaded numbers.
const perCore = 1

// JoinResult is one server-side join measurement.
type JoinResult struct {
	ServerTime    time.Duration
	Matches       int
	RevealedPairs int
	// RowsDecrypted counts the rows RunJoin put through SJ.Dec, both
	// tables together, from the stream's last progress report. The Hahn
	// baseline leaves it 0.
	RowsDecrypted int
}

// RunJoin measures the server-side cost of one query applying sel to
// both tables, through the join path the system runs: the client mints
// the tokens before the clock starts, and the timed region is exactly
// engine.OpenJoin plus draining the stream. With prefilter set the
// query carries SSE tokens and SJ.Dec runs over the selection-matching
// rows only — the paper's evaluation setup, whose runtime grows as
// selectivity * n (the slope ordering of Figures 3 and 4); unset is the
// leakage-optimal full scan, independent of selectivity. SJ.Dec runs
// on perCore workers.
func (w *Workload) RunJoin(sel securejoin.Selection, prefilter bool) (JoinResult, error) {
	var last engine.JoinProgress
	spec := engine.JoinSpec{Workers: perCore, Progress: func(p engine.JoinProgress) { last = p }}
	var err error
	if prefilter {
		spec.Prefilter, err = w.keys.NewPrefilterQuery(sel, sel)
	} else {
		spec.Query, err = w.keys.NewQuery(sel, sel)
	}
	if err != nil {
		return JoinResult{}, err
	}
	start := time.Now()
	stream, err := w.srv.OpenJoin(tableCustomers, tableOrders, spec)
	if err != nil {
		return JoinResult{}, err
	}
	rows, _, err := stream.Drain()
	if err != nil {
		return JoinResult{}, err
	}
	return JoinResult{
		ServerTime:    time.Since(start),
		Matches:       len(rows),
		RevealedPairs: stream.RevealedPairs(),
		RowsDecrypted: last.RowsDecrypted,
	}, nil
}

// HahnWorkload is the comparison workload for the Hahn et al. baseline.
type HahnWorkload struct {
	Scheme    *baseline.HahnScheme
	Dataset   *tpch.Dataset
	Customers *baseline.ServerState
	Orders    *baseline.ServerState
}

// BuildHahnWorkload encrypts the same TPC-H instance under the Hahn
// et al. baseline.
func BuildHahnWorkload(scaleFactor float64, seed int64) (*HahnWorkload, error) {
	scheme, err := baseline.NewHahnScheme(nil)
	if err != nil {
		return nil, err
	}
	ds := tpch.Generate(scaleFactor, seed)

	joinC := make([][]byte, len(ds.Customers))
	attrC := make([][]byte, len(ds.Customers))
	for i, c := range ds.Customers {
		joinC[i] = tpch.CustomerJoinValue(c)
		attrC[i] = []byte(c.Selectivity)
	}
	rowsC, err := scheme.EncryptTable(joinC, attrC)
	if err != nil {
		return nil, err
	}

	joinO := make([][]byte, len(ds.Orders))
	attrO := make([][]byte, len(ds.Orders))
	for i, o := range ds.Orders {
		joinO[i] = tpch.OrderJoinValue(o)
		attrO[i] = []byte(o.Selectivity)
	}
	rowsO, err := scheme.EncryptTable(joinO, attrO)
	if err != nil {
		return nil, err
	}

	return &HahnWorkload{
		Scheme:    scheme,
		Dataset:   ds,
		Customers: baseline.NewServerState(rowsC),
		Orders:    baseline.NewServerState(rowsO),
	}, nil
}

// RunServerJoin measures the Hahn baseline's server cost: unwrap all
// selection-matching rows, then nested-loop join the unwrapped tags.
func (w *HahnWorkload) RunServerJoin(label string) JoinResult {
	tok := w.Scheme.Token([][]byte{[]byte(label)})
	start := time.Now()
	w.Customers.Unwrap(tok)
	w.Orders.Unwrap(tok)
	pairs := baseline.NestedLoopJoin(w.Customers, w.Orders)
	return JoinResult{ServerTime: time.Since(start), Matches: len(pairs)}
}
