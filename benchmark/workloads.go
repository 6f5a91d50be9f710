package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/securejoin"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/wire"
)

// decryptCacheBytes is cmd/sjserver's default budget, so the benchmark
// server retains what a deployed one would.
const decryptCacheBytes = 64 << 20

// ingestTables is the number of table names the ingest workload rotates
// over, so every timed upload overwrites an earlier version.
const ingestTables = 8

// ingestTableRows is the size of the tables the ingest workload uploads
// and of the table the store and wire kernels are timed on.
const ingestTableRows = 16

// sizing fixes the input sizes; tests shrink it, runs use fullSize.
type sizing struct {
	scanScale, seriesScale, jobScale, ingestScale float64
	ingestRows                                    int // rows per uploaded ingest table
	kernelCalls                                   int // repetitions of a millisecond-scale kernel
}

// fullSize is chosen so one set-up takes about two seconds at most (it
// is repeated three times a run) and a run of run_seconds holds 50 or
// more operations; see README.md for the counts it yields.
var fullSize = sizing{
	scanScale:   0.00003, // 4 Customers, 45 Orders
	seriesScale: 0.0001,  // 15 Customers, 150 Orders, 15 Profiles
	jobScale:    0.00002, // 150 Contacts, 30 Orders: 1500 result rows
	ingestScale: 0.0001,  // 150 Orders, of which 8 tables of ingestRows
	ingestRows:  ingestTableRows,
	kernelCalls: 30,
}

// opResult is what one operation returned, kept for checking once the
// operation's clock has stopped.
type opResult struct {
	q         *query // nil: nothing to compare (an upload)
	acc, want resultAcc
	revealed  int
	sigmaMax  int
}

// workload is one named traffic shape. Every operation is issued on one
// client connection, the next only after the previous has completed.
type workload struct {
	name    string
	params  securejoin.Params
	scale   float64
	durable bool
	indexed bool
	// warmup operations are run and discarded before timing. Timed
	// operations come in windows of window operations — a whole cycle of
	// the workload's mix, about a second of work — and a run ends only
	// at the end of one, so every run holds the same mix.
	warmup, window int
	// heapAtOp is the timed operation (a multiple of window) after
	// which live_heap_mb is read: a fixed count, because the server
	// retains state per query and a fixed time would hold more of it
	// the faster the program is.
	heapAtOp int
	// queries are the joins the workload issues, or for workloads whose
	// operation is no join, the reference join of their tables.
	queries []query
	tables  []string // uploaded at set-up, in order
	// cutOrders, when set, makes each table that many rows of Orders
	// (the ingest workload's tables) instead of a TPC-H table.
	cutOrders int
	// procs, when set, is the GOMAXPROCS the operations run under (the
	// set-up keeps every CPU).
	procs int
	// restarts makes the end-to-end run finish by shutting the server
	// down, reopening its data directory and checking it (see recover).
	restarts bool
	// kernelCalls is how often the traced run repeats a
	// millisecond-scale kernel for its mean.
	kernelCalls int

	prepare func(e *env) error // after uploads, inside set-up
	op      func(e *env, i int) (opResult, error)
	// unrolled performs operation i layer by layer under tr; nil for
	// workloads whose operation is a query (see unrolledQuery).
	unrolled func(e *env, tr *tracer, i int) (opResult, error)
}

// env is one set-up instance of a workload: generated data, a server on
// loopback, one client connection.
type env struct {
	w      *workload
	data   *dataset
	dir    string // data directory of a durable server
	st     *store.Store
	srv    *server.Server
	cli    *client.Client
	cat    *sql.Catalog
	jobID  string
	expect []resultAcc // oracle result per query
	sigmas map[sigmaKey]int
}

// sigmaKey names one pairwise step of one query.
type sigmaKey struct {
	query       int
	left, right string
}

func (sz sizing) workloads() []*workload {
	series := seriesQueries()
	ingestNames := make([]string, ingestTables)
	for k := range ingestNames {
		ingestNames[k] = fmt.Sprintf("Ingest%d", k)
	}
	all := []*workload{
		{
			name: "scan_cold", params: securejoin.Params{M: 1, T: 1}, scale: sz.scanScale,
			warmup: 3, window: 4, heapAtOp: 8,
			queries: []query{joinAll("Customers", "Orders")},
			tables:  []string{"Customers", "Orders"},
			op: func(e *env, i int) (opResult, error) {
				return e.joinWith(0, client.JoinOpts{})
			},
		},
		{
			name: "series_selective", params: securejoin.Params{M: 1, T: 4}, scale: sz.seriesScale,
			indexed: true,
			warmup:  len(series), window: len(series), heapAtOp: len(series),
			queries: series,
			tables:  []string{"Customers", "Orders", "Profiles"},
			prepare: (*env).syncCatalog,
			op: func(e *env, i int) (opResult, error) {
				return e.executeSQL(i % len(e.w.queries))
			},
		},
		{
			name: "job_replay", params: securejoin.Params{M: 1, T: 1}, scale: sz.jobScale,
			durable: true,
			// The operation has no parallel work, only hand-offs between
			// the client's and the server's goroutines. Spread over two
			// vCPUs of a shared host each hand-off waits for the
			// hypervisor to wake the other vCPU: the operation ran twice
			// as slow and several times as noisy as on one, and what it
			// measured was the host.
			procs:  1,
			warmup: 20, window: 50, heapAtOp: 200,
			queries: []query{joinAll("Contacts", "Orders")},
			tables:  []string{"Contacts", "Orders"},
			prepare: (*env).submitJob,
			op: func(e *env, i int) (opResult, error) {
				rows, revealed, err := e.cli.WaitJob(e.jobID)
				return e.pairResult(0, rows, revealed), err
			},
			unrolled: (*env).unrolledReplay,
		},
		{
			name: "ingest", params: securejoin.Params{M: 1, T: 4}, scale: sz.ingestScale,
			durable: true, indexed: true, restarts: true,
			warmup: 4, window: 4, heapAtOp: ingestTables,
			queries: []query{joinAll(ingestNames[0], ingestNames[1])},
			tables:  ingestNames, cutOrders: sz.ingestRows,
			op: func(e *env, i int) (opResult, error) {
				name := e.w.tables[i%len(e.w.tables)]
				return opResult{}, e.cli.UploadIndexed(name, e.data.tables[name])
			},
			unrolled: (*env).unrolledIngest,
		},
	}
	for _, w := range all {
		w.kernelCalls = sz.kernelCalls
	}
	return all
}

// seriesQueries is the fixed cycle of series_selective: an odd number
// of shapes, so the median operation lies inside one shape's latencies
// and not in the gap between two.
func seriesQueries() []query {
	const two = "FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey"
	const three = two + " JOIN Profiles ON Profiles.custkey = Customers.custkey"
	all3 := []string{"Orders", "Customers", "Profiles"}
	return []query{
		{sql: "SELECT * " + two + " WHERE Orders.selectivity = '1/100'",
			tables: all3[:2], in: map[string][]string{"Orders": {"1/100"}}},
		{sql: "SELECT * " + two + " WHERE Orders.selectivity IN ('1/25', '1/100')",
			tables: all3[:2], in: map[string][]string{"Orders": {"1/25", "1/100"}}},
		{sql: "SELECT * " + two + " WHERE Orders.selectivity = '1/12.5'",
			tables: all3[:2], in: map[string][]string{"Orders": {"1/12.5"}}},
		{sql: "SELECT * " + two + " WHERE Orders.selectivity IN ('1/12.5', '1/25', '1/50', '1/100')",
			tables: all3[:2], in: map[string][]string{"Orders": {"1/12.5", "1/25", "1/50", "1/100"}}},
		{sql: "SELECT * " + three + " WHERE Orders.selectivity = '1/50'",
			tables: all3, in: map[string][]string{"Orders": {"1/50"}}},
		{sql: "SELECT Orders.custkey, Customers.custkey, Profiles.custkey " + three +
			" WHERE Orders.selectivity IN ('1/25', '1/50', '1/100')",
			tables: all3, in: map[string][]string{"Orders": {"1/25", "1/50", "1/100"}}, keyOnly: true},
		{sql: "SELECT * FROM Orders JOIN Profiles ON Orders.custkey = Profiles.custkey WHERE Orders.selectivity = '1/25'",
			tables: []string{"Orders", "Profiles"}, in: map[string][]string{"Orders": {"1/25"}}},
	}
}

// setup builds one instance: data generation, key generation, server
// start, fixture encryption and upload, and the workload's own
// preparation. All of it is what setup_s times.
func (w *workload) setup(outDir string, seed int64) (e *env, err error) {
	e = &env{w: w, data: generate(w.scale, seed)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if w.cutOrders > 0 {
		orders := e.data.tables["Orders"]
		if len(orders) < len(w.tables)*w.cutOrders {
			return e, fmt.Errorf("%s: %d Orders cannot fill %d tables of %d rows", w.name, len(orders), len(w.tables), w.cutOrders)
		}
		for k, name := range w.tables {
			e.data.tables[name] = orders[k*w.cutOrders : (k+1)*w.cutOrders]
		}
	}
	if w.durable {
		if e.dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
			return e, err
		}
		if e.st, err = store.Open(e.dir); err != nil {
			return e, err
		}
	}
	if err = e.serve(); err != nil {
		return e, err
	}
	for _, name := range w.tables {
		if w.indexed {
			err = e.cli.UploadIndexed(name, e.data.tables[name])
		} else {
			err = e.cli.Upload(name, e.data.tables[name])
		}
		if err != nil {
			return e, fmt.Errorf("uploading %s: %w", name, err)
		}
	}
	if w.prepare != nil {
		if err = w.prepare(e); err != nil {
			return e, err
		}
	}
	return e, nil
}

// serve starts a server configured like cmd/sjserver's defaults over
// e.st (nil: in memory) and connects the client, reusing its keys when
// it had a connection before.
func (e *env) serve() error {
	e.srv = server.NewWithStore(nil, e.st)
	e.srv.SetDecryptCache(decryptCacheBytes)
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	if e.cli == nil {
		e.cli, err = client.Dial(addr, e.w.params)
	} else {
		e.cli, err = client.DialWithKeys(addr, e.cli.Keys())
	}
	return err
}

// shutdown closes the connection and the server (which closes its
// store), keeping the data directory.
func (e *env) shutdown() {
	if e.cli != nil {
		e.cli.Close()
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
}

// close releases everything a set-up created.
func (e *env) close() {
	e.shutdown()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// oracle computes the expected result of every query; it runs outside
// every timed interval.
func (e *env) oracle() {
	e.sigmas = make(map[sigmaKey]int)
	e.expect = make([]resultAcc, len(e.w.queries))
	for i, q := range e.w.queries {
		e.expect[i] = e.data.expect(q)
	}
}

// check compares one operation's result with the oracle: the row
// numbers and opened payloads must be exactly the plaintext join, and
// the server may not have observed more equality pairs than sigma(q).
func check(r opResult) error {
	if r.q == nil {
		return nil
	}
	if r.acc != r.want {
		return fmt.Errorf("%s: got %d rows (digest %x), oracle has %d rows (digest %x)",
			r.q.sql, r.acc.rows, r.acc.digest, r.want.rows, r.want.digest)
	}
	if r.revealed > r.sigmaMax {
		return fmt.Errorf("%s: server observed %d equality pairs, sigma(q) allows %d", r.q.sql, r.revealed, r.sigmaMax)
	}
	return nil
}

// pairResult folds a two-table client result into an opResult.
func (e *env) pairResult(qi int, rows []client.JoinResult, revealed int) opResult {
	q := &e.w.queries[qi]
	r := opResult{q: q, want: e.expect[qi], revealed: revealed, sigmaMax: e.sigma(qi, q.tables[0], q.tables[1])}
	for _, jr := range rows {
		r.acc.add([]int{jr.RowA, jr.RowB}, [][]byte{jr.PayloadA, jr.PayloadB})
	}
	return r
}

// joinWith runs query qi through the ad-hoc client entry point: fresh
// tokens, one JoinRequest, the stream drained and every payload opened.
func (e *env) joinWith(qi int, opts client.JoinOpts) (opResult, error) {
	q := &e.w.queries[qi]
	a, b := q.tables[0], q.tables[1]
	rows, revealed, err := e.cli.JoinWith(a, b, q.selection(a), q.selection(b), opts)
	return e.pairResult(qi, rows, revealed), err
}

// executeSQL compiles query qi and runs the plan over the wire.
func (e *env) executeSQL(qi int) (opResult, error) {
	q := &e.w.queries[qi]
	plan, err := e.cat.Compile(q.sql)
	if err != nil {
		return opResult{}, err
	}
	r := opResult{q: q, want: e.expect[qi], sigmaMax: e.sigmaMax(qi, plan)}
	r.revealed, err = e.cli.ExecutePlan(plan, func(row sql.ResultRow) error {
		r.acc.add(row.Rows, row.Payloads)
		return nil
	})
	return r, err
}

// sigma is the oracle's |sigma| of one pairwise step of query qi,
// computed once.
func (e *env) sigma(qi int, left, right string) int {
	key := sigmaKey{qi, left, right}
	n, ok := e.sigmas[key]
	if !ok {
		n = e.data.sigma(e.w.queries[qi], left, right)
		e.sigmas[key] = n
	}
	return n
}

// sigmaMax sums sigma over the pairwise steps the planner chose.
func (e *env) sigmaMax(qi int, plan *sql.Plan) int {
	total := 0
	for _, st := range plan.Steps {
		total += e.sigma(qi, st.Left.Table, st.Right.Table)
	}
	return total
}

// syncCatalog declares the workload's tables to a planner and syncs
// row counts and index state from the server, as cmd/sjsql does.
func (e *env) syncCatalog() error {
	var err error
	if e.cat, err = sql.NewCatalog(catalogSchemas(e.w.tables)...); err != nil {
		return err
	}
	e.cat.Instrument(e.srv.Registry())
	_, err = e.cli.SyncCatalog(e.cat)
	return err
}

// catalogSchemas declares tables joined on custkey and filterable on
// selectivity, the one schema every benchmark table has.
func catalogSchemas(tables []string) []sql.TableSchema {
	schemas := make([]sql.TableSchema, len(tables))
	for i, name := range tables {
		schemas[i] = sql.TableSchema{Name: name, JoinColumn: "custkey", Attrs: map[string]int{"selectivity": 0}}
	}
	return schemas
}

// submitJob runs the workload's join as an async job and polls it to
// completion; the spooled result is what the timed operations replay.
func (e *env) submitJob() error {
	q := e.w.queries[0]
	info, err := e.cli.SubmitJoinQuery(q.tables[0], q.tables[1], nil, nil, client.JoinOpts{})
	if err != nil {
		return err
	}
	if info, err = e.cli.PollJob(info.ID, 10*time.Millisecond); err != nil {
		return err
	}
	if info.State != wire.JobDone {
		return fmt.Errorf("set-up job %s ended %s: %s", info.ID, info.State, info.Err)
	}
	e.jobID = info.ID
	return nil
}

// recover is the end of the ingest workload: the server is shut down,
// the data directory reopened, and every table must be back whole;
// then a server over the recovered store answers the reference join.
// It returns the checks made and failed.
func (e *env) recover() (attempted, failed int) {
	e.shutdown()
	fail := func(err error) {
		failed++
		fmt.Fprintln(os.Stderr, "ingest recovery:", err)
	}
	st, err := store.Open(e.dir)
	attempted++
	if err != nil {
		fail(err)
		return attempted, failed
	}
	e.st = st
	if d := st.Damaged(); len(d) > 0 {
		fail(fmt.Errorf("store reports damage: %v", d))
	}
	rows := make(map[string]int)
	for _, t := range st.Tables() {
		rows[t.Name] = len(t.Rows)
	}
	for _, name := range e.w.tables {
		attempted++
		if got, want := rows[name], len(e.data.tables[name]); got != want {
			fail(fmt.Errorf("table %s came back with %d of %d rows", name, got, want))
		}
	}
	attempted++
	if err := e.serve(); err != nil {
		fail(err)
		return attempted, failed
	}
	r, err := e.joinWith(0, client.JoinOpts{})
	if err == nil {
		err = check(r)
	}
	if err != nil {
		fail(err)
	}
	return attempted, failed
}

// counter reads one of the server's registered counters.
func (e *env) counter(name string) float64 {
	c, ok := e.srv.Registry().Get(name).(*metrics.Counter)
	if !ok {
		return 0
	}
	return float64(c.Value())
}
