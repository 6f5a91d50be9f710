// Command sjbench regenerates every figure of the paper's evaluation
// (Section 6) as printed series:
//
//	sjbench -fig 2            # Fig. 2: crypto micro-benchmarks vs IN-clause size
//	sjbench -fig 3            # Fig. 3: join runtime vs TPC-H scale factor
//	sjbench -fig 4            # Fig. 4: join runtime vs IN-clause size
//	sjbench -fig comparison   # Sec. 6.5: Secure Join vs Hahn et al.
//	sjbench -fig concurrent   # engine throughput under concurrent joins
//	sjbench -fig prefilter    # full-scan vs SSE-prefiltered vs parallel, over the wire
//	sjbench -fig multijoin    # 2-way vs 3-way, statistics-ordered vs naive join order
//	sjbench -fig semijoin     # candidate propagation: full vs semi-join vs key-only chains
//	sjbench -fig decrypt      # SJ.Dec ablation: naive vs precomputed vs decrypt-cache cold/warm
//	sjbench -fig shard        # scatter-gather: the same join sharded over 1, 2, 4 servers
//	sjbench -fig all
//
// It doubles as the CI perf gate:
//
//	sjbench -diff old.json new.json   # non-zero exit if any series got >25% slower
//
// The pure-Go pairing is slower than the authors' C library, so by
// default the TPC-H scale factors are divided by -scalediv (100). Run
// with -scalediv 1 for paper-scale row counts (hours of CPU time).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/securejoin"
	"repro/internal/server"
	sqlpkg "repro/internal/sql"
	"repro/internal/tpch"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2, 3, 4, comparison, concurrent, prefilter, multijoin, semijoin, decrypt, shard, all")
	scaleDiv := flag.Float64("scalediv", 100, "divide the paper's TPC-H scale factors by this factor")
	reps := flag.Int("reps", 3, "repetitions per Figure 2 measurement")
	seed := flag.Int64("seed", 42, "dataset generator seed")
	rows := flag.Int("rows", 200, "rows per table for -fig prefilter, multijoin, semijoin, decrypt and shard")
	out := flag.String("out", ".", "directory for the BENCH_*.json reports of -fig prefilter, multijoin, semijoin, decrypt and shard")
	diff := flag.Bool("diff", false, "compare two BENCH_*.json reports (old new) and exit non-zero on regressions")
	diffTol := flag.Float64("difftol", 0.25, "fractional slowdown tolerated per series by -diff")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: sjbench -diff old.json new.json")
			os.Exit(2)
		}
		if err := diffReports(flag.Arg(0), flag.Arg(1), *diffTol); err != nil {
			fmt.Fprintln(os.Stderr, "sjbench:", err)
			os.Exit(1)
		}
		return
	}

	var err error
	switch *fig {
	case "2":
		err = fig2(*reps)
	case "3":
		err = fig3(*scaleDiv, *seed)
	case "4":
		err = fig4(*scaleDiv, *seed)
	case "comparison":
		err = comparison(*scaleDiv, *seed)
	case "concurrent":
		err = concurrent()
	case "prefilter":
		err = prefilterWire(*rows, *out)
	case "multijoin":
		err = multijoin(*rows, *out)
	case "semijoin":
		err = semijoin(*rows, *out)
	case "decrypt":
		err = decryptAblation(*rows, *out)
	case "shard":
		err = shardAblation(*rows, *out)
	case "all":
		if err = fig2(*reps); err == nil {
			if err = fig3(*scaleDiv, *seed); err == nil {
				if err = fig4(*scaleDiv, *seed); err == nil {
					if err = comparison(*scaleDiv, *seed); err == nil {
						if err = concurrent(); err == nil {
							if err = prefilterWire(*rows, *out); err == nil {
								if err = multijoin(*rows, *out); err == nil {
									if err = semijoin(*rows, *out); err == nil {
										if err = decryptAblation(*rows, *out); err == nil {
											err = shardAblation(*rows, *out)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjbench:", err)
		os.Exit(1)
	}
}

func fig2(reps int) error {
	fmt.Println("== Figure 2: crypto operation benchmarks for a single Customers row ==")
	fmt.Println("in_clause_size  tokengen_ms  encrypt_ms  decrypt_ms")
	for t := 1; t <= 10; t++ {
		r, err := bench.MeasureCryptoOps(t, reps)
		if err != nil {
			return err
		}
		fmt.Printf("%14d  %11.2f  %10.2f  %10.2f\n",
			t, ms(r.TokenGen), ms(r.Encrypt), ms(r.Decrypt))
	}
	fmt.Println()
	return nil
}

func fig3(scaleDiv float64, seed int64) error {
	fmt.Printf("== Figure 3: join runtime vs scale factor (scale factors divided by %g) ==\n", scaleDiv)
	fmt.Println("paper_scale  rows_cust  rows_ord  selectivity  server_seconds  matches")
	for _, paperScale := range []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.1} {
		scale := paperScale / scaleDiv
		w, err := bench.BuildWorkload(scale, 1, seed)
		if err != nil {
			return err
		}
		for _, sel := range tpch.Selectivities {
			res, err := w.RunServerJoin(bench.Selection(sel.Label, 1))
			if err != nil {
				return err
			}
			fmt.Printf("%11.2f  %9d  %8d  %11s  %14.3f  %7d\n",
				paperScale, len(w.Dataset.Customers), len(w.Dataset.Orders),
				sel.Label, res.ServerTime.Seconds(), res.Matches)
		}
	}
	fmt.Println()
	return nil
}

func fig4(scaleDiv float64, seed int64) error {
	fmt.Printf("== Figure 4: join runtime vs IN-clause size (paper scale 0.01 / %g) ==\n", scaleDiv)
	fmt.Println("in_clause_size  selectivity  server_seconds  matches")
	scale := 0.01 / scaleDiv
	for t := 1; t <= 10; t++ {
		w, err := bench.BuildWorkload(scale, t, seed)
		if err != nil {
			return err
		}
		for _, sel := range tpch.Selectivities {
			res, err := w.RunServerJoin(bench.Selection(sel.Label, t))
			if err != nil {
				return err
			}
			fmt.Printf("%14d  %11s  %14.3f  %7d\n",
				t, sel.Label, res.ServerTime.Seconds(), res.Matches)
		}
	}
	fmt.Println()
	return nil
}

func comparison(scaleDiv float64, seed int64) error {
	fmt.Printf("== Section 6.5: Secure Join vs Hahn et al. (paper scale 0.01 / %g) ==\n", scaleDiv)
	scale := 0.01 / scaleDiv

	w, err := bench.BuildWorkload(scale, 1, seed)
	if err != nil {
		return err
	}
	ours, err := w.RunServerJoin(bench.Selection(tpch.Sel100, 1))
	if err != nil {
		return err
	}
	n := len(w.Dataset.Customers) + len(w.Dataset.Orders)
	fmt.Printf("secure_join: hash join, O(n): server %.3fs over %d rows (%.1f ms/row decryption), %d matches\n",
		ours.ServerTime.Seconds(), n,
		float64(ours.ServerTime.Milliseconds())/float64(n), ours.Matches)

	hw, err := bench.BuildHahnWorkload(scale, seed)
	if err != nil {
		return err
	}
	hahn := hw.RunServerJoin(tpch.Sel100)
	fmt.Printf("hahn_et_al : nested loop, O(n^2): server %.3fs, %d matches\n",
		hahn.ServerTime.Seconds(), hahn.Matches)

	// Run the same query a second time with fresh randomness: Secure Join
	// repeats the full cost but leaks nothing new; Hahn reuses unwrapped
	// rows (cheaper) at the price of cross-query linkability.
	ours2, err := w.RunServerJoin(bench.Selection(tpch.Sel100, 1))
	if err != nil {
		return err
	}
	hahn2 := hw.RunServerJoin(tpch.Sel100)
	fmt.Printf("second query: secure_join %.3fs (unlinkable), hahn %.3fs (reuses unwrapped tags, linkable)\n",
		ours2.ServerTime.Seconds(), hahn2.ServerTime.Seconds())
	fmt.Println()
	return nil
}

// concurrent measures engine.Server join throughput as the number of
// concurrently querying clients grows. The table store takes only a
// read lock per query and leakage recording its own short lock, so
// throughput should scale until the cores are saturated.
func concurrent() error {
	fmt.Println("== Concurrent joins: engine throughput vs concurrent clients ==")
	cli, err := engine.NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		return err
	}
	srv := engine.NewServer()
	const rows = 16
	mk := func(n int) []engine.PlainRow {
		out := make([]engine.PlainRow, n)
		for i := range out {
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte("x")},
				Payload:   []byte(fmt.Sprintf("row-%d", i)),
			}
		}
		return out
	}
	for _, name := range []string{"L", "R"} {
		t, err := cli.EncryptTable(name, mk(rows))
		if err != nil {
			return err
		}
		srv.Upload(t)
	}

	fmt.Println("clients  joins  seconds  joins_per_sec")
	for _, clients := range []int{1, 2, 4, 8} {
		const joinsPerClient = 2
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < joinsPerClient; j++ {
					q, err := cli.NewQuery(securejoin.Selection{}, securejoin.Selection{})
					if err != nil {
						errs <- err
						return
					}
					st, err := srv.OpenJoin("L", "R", engine.JoinSpec{Query: q})
					if err == nil {
						_, _, err = st.Drain()
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
		}
		elapsed := time.Since(start)
		total := clients * joinsPerClient
		fmt.Printf("%7d  %5d  %7.3f  %13.2f\n",
			clients, total, elapsed.Seconds(), float64(total)/elapsed.Seconds())
	}
	fmt.Println()
	return nil
}

// prefilterWire measures the Section 4.3 fast path end-to-end over the
// v2 wire protocol: a loopback server, indexed uploads, and one join
// per selectivity executed three ways — full scan, SSE-prefiltered,
// and prefiltered with the server's parallel SJ.Dec worker pool.
func prefilterWire(rows int, outDir string) error {
	fmt.Printf("== Prefiltered joins over the wire (%d rows per table, %d cores) ==\n",
		rows, runtime.GOMAXPROCS(0))

	srv := server.New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := client.Dial(addr, securejoin.Params{M: 1, T: 1})
	if err != nil {
		return err
	}
	defer cli.Close()

	// Selectivity classes: 1% of rows carry "c1", 10% carry "c10", the
	// rest "bulk"; an unrestricted query touches 100%.
	mk := func(n int) []engine.PlainRow {
		out := make([]engine.PlainRow, n)
		for i := range out {
			attr := "bulk"
			switch {
			case i < n/100:
				attr = "c1"
			case i < n/100+n/10:
				attr = "c10"
			}
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte(attr)},
				Payload:   []byte(fmt.Sprintf("row-%d", i)),
			}
		}
		return out
	}
	for _, name := range []string{"L", "R"} {
		if err := cli.UploadIndexed(name, mk(rows)); err != nil {
			return err
		}
	}

	sels := []struct {
		label string
		sel   securejoin.Selection
	}{
		{"1%", securejoin.Selection{0: [][]byte{[]byte("c1")}}},
		{"10%", securejoin.Selection{0: [][]byte{[]byte("c10")}}},
		{"100%", securejoin.Selection{}},
	}
	modes := []struct {
		label string
		opts  client.JoinOpts
	}{
		{"full_scan", client.JoinOpts{Workers: 1}},
		{"prefiltered", client.JoinOpts{Prefilter: true, Workers: 1}},
		{"prefiltered_parallel", client.JoinOpts{Prefilter: true, Workers: runtime.GOMAXPROCS(0)}},
	}
	report := &benchReport{Fig: "prefilter", Rows: rows}
	fmt.Println("selectivity  mode                  seconds  matches  revealed_pairs")
	for _, sc := range sels {
		for _, mode := range modes {
			start := time.Now()
			results, revealed, err := cli.JoinWith("L", "R", sc.sel, sc.sel, mode.opts)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			fmt.Printf("%11s  %-20s  %7.3f  %7d  %14d\n",
				sc.label, mode.label, elapsed.Seconds(), len(results), revealed)
			report.Series = append(report.Series, benchSeries{
				Label: sc.label, Mode: mode.label,
				Seconds: elapsed.Seconds(), Matches: len(results), RevealedPairs: revealed,
			})
		}
	}
	fmt.Println()
	// The quantiles come from the loopback server's own registry — the
	// very numbers its /metrics endpoint would export under this load.
	report.Histograms = scrapeHistograms(srv.Registry(),
		"sj_join_seconds", "sj_dec_seconds")
	return writeReport(outDir, report)
}

// multijoin is the operator-tree ablation: a 3-table star (Orders with
// one row per order, Customers and Profiles with rows/10 each, all on
// one key domain, clique join conditions) queried with a selective
// customer predicate. It compares the 2-way baseline against the 3-way
// tree under the statistics-driven join order and under the naive
// declaration order — the naive FROM clause lists Orders first, so its
// chain decrypts the big table in both pairwise steps, while the
// ordered plan anchors the chain on the filtered Customers side.
func multijoin(rows int, outDir string) error {
	small := rows / 10
	if small < 2 {
		small = 2
	}
	fmt.Printf("== Multi-join ablation (%d orders, %d customers, %d profiles, in-process) ==\n",
		rows, small, small)

	keys, err := engine.NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		return err
	}
	eng := engine.NewServer()
	// In-process run, so build the registry by hand: engine histograms
	// plus the stats-ordered catalog's planner counters in one scrape.
	reg := metrics.NewRegistry()
	eng.Instrument(reg)
	mk := func(n, keyDomain int) []engine.PlainRow {
		out := make([]engine.PlainRow, n)
		for i := range out {
			attr := "bulk"
			switch {
			case i < n/100:
				attr = "c1"
			case i < n/100+n/10:
				attr = "c10"
			}
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i%keyDomain)),
				Attrs:     [][]byte{[]byte(attr)},
				Payload:   []byte(fmt.Sprintf("row-%d", i)),
			}
		}
		return out
	}
	for name, n := range map[string]int{"Customers": small, "Profiles": small, "Orders": rows} {
		tab, err := keys.EncryptTableIndexed(name, mk(n, small))
		if err != nil {
			return err
		}
		eng.Upload(tab)
	}

	schemas := func() []sqlpkg.TableSchema {
		return []sqlpkg.TableSchema{
			{Name: "Orders", JoinColumn: "k", Attrs: map[string]int{"selectivity": 0}},
			{Name: "Profiles", JoinColumn: "k", Attrs: map[string]int{"selectivity": 0}},
			{Name: "Customers", JoinColumn: "k", Attrs: map[string]int{"selectivity": 0}},
		}
	}
	ordered, err := sqlpkg.NewCatalog(schemas()...)
	if err != nil {
		return err
	}
	ordered.Instrument(reg)
	for _, st := range eng.TableStats() {
		if err := ordered.SetStats(st.Name, st.Rows, st.Indexed); err != nil {
			return err
		}
	}
	naive, err := sqlpkg.NewCatalog(schemas()...)
	if err != nil {
		return err
	}
	for _, st := range eng.TableStats() {
		// Index bit only: without row counts the planner falls back to
		// the declaration order of the (deliberately bad) FROM clause.
		if err := naive.SetIndexed(st.Name, st.Indexed); err != nil {
			return err
		}
	}

	const where = `Orders.k = Customers.k AND Customers.selectivity = 'c10'`
	twoWay := `SELECT * FROM Orders, Customers WHERE ` + where
	threeWay := `SELECT * FROM Orders, Profiles, Customers WHERE Orders.k = Profiles.k AND Profiles.k = Customers.k AND ` + where

	cases := []struct {
		label string
		cat   *sqlpkg.Catalog
		query string
	}{
		{"2way_baseline", ordered, twoWay},
		{"3way_stats_ordered", ordered, threeWay},
		{"3way_naive_order", naive, threeWay},
	}
	report := &benchReport{Fig: "multijoin", Rows: rows}
	fmt.Println("mode                seconds  result_rows  revealed_pairs  chain")
	for _, c := range cases {
		plan, err := c.cat.Compile(c.query)
		if err != nil {
			return err
		}
		var chain []string
		for _, st := range plan.Steps {
			chain = append(chain, st.Left.Table+"x"+st.Right.Table)
		}
		n := 0
		start := time.Now()
		revealed, err := sqlpkg.Execute(sqlpkg.EngineRunner(eng, keys), plan,
			func(sqlpkg.ResultRow) error { n++; return nil })
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Printf("%-18s  %7.3f  %11d  %14d  %s\n",
			c.label, elapsed.Seconds(), n, revealed, strings.Join(chain, " -> "))
		report.Series = append(report.Series, benchSeries{
			Label: c.label, Seconds: elapsed.Seconds(),
			Matches: n, RevealedPairs: revealed, Chain: strings.Join(chain, " -> "),
		})
	}
	fmt.Println()
	report.Histograms = scrapeHistograms(reg, "sj_join_seconds", "sj_dec_seconds")
	return writeReport(outDir, report)
}

// decRunner wraps a StepRunner and snapshots the engine's
// sj_rows_decrypted_total counter at every step boundary. Execute
// drains step i completely before requesting step i+1, so the deltas
// attribute each decrypted row to the step that ran it.
type decRunner struct {
	inner sqlpkg.StepRunner
	ctr   *metrics.Counter
	steps []uint64
	mark  uint64
}

func (r *decRunner) RunStep(p *sqlpkg.Plan, step int, in sqlpkg.StepInput) (sqlpkg.StepStream, error) {
	now := r.ctr.Value()
	if step > 0 {
		r.steps = append(r.steps, now-r.mark)
	}
	r.mark = now
	return r.inner.RunStep(p, step, in)
}

// finish closes the last step's window and returns the per-step deltas.
func (r *decRunner) finish() []uint64 {
	r.steps = append(r.steps, r.ctr.Value()-r.mark)
	return r.steps
}

// The 3way_stats_ordered series of the multijoin figure as committed
// before candidate propagation landed — the pre-semi-join execution
// of a statistics-ordered 3-way chain that -fig semijoin's headline
// speedup is measured against.
const preSemiJoin3WaySeconds = 2.971867758

// semijoin is the candidate-propagation ablation: a star whose hub is
// by far the biggest table, so re-decrypting it on every stitch step
// dominates the full execution. One spoke carries a selective
// predicate; after step 1 only the hub rows it matched can survive,
// and the semi-join plan ships exactly that candidate list into the
// later steps instead of running SJ.Dec over the whole hub again. The
// key-only variant additionally projects to join keys, skipping the
// sealed-payload decryptions outright. Per-step
// sj_rows_decrypted_total deltas are recorded so the report proves —
// not just times — that step 2 touched only the candidate set.
func semijoin(rows int, outDir string) error {
	hub := rows * 2 / 5
	if hub < 4 {
		hub = 4
	}
	spoke := rows / 50
	if spoke < 2 {
		spoke = 2
	}
	fmt.Printf("== Semi-join ablation (%d-row hub, %d-row spokes, in-process) ==\n", hub, spoke)

	keys, err := engine.NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		return err
	}
	eng := engine.NewServer()
	reg := metrics.NewRegistry()
	eng.Instrument(reg)

	// Hub keys are all distinct; each spoke covers the first few keys,
	// with exactly one row carrying the predicate value — so step 1
	// matches a single hub row and the candidate list has length 1.
	mkHub := func(n int) []engine.PlainRow {
		out := make([]engine.PlainRow, n)
		for i := range out {
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte("bulk")},
				Payload:   []byte(fmt.Sprintf("order-%d", i)),
			}
		}
		return out
	}
	mkSpoke := func(name string, n int) []engine.PlainRow {
		out := make([]engine.PlainRow, n)
		for i := range out {
			attr := "skip"
			if i == 0 {
				attr = "pick"
			}
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte(attr)},
				Payload:   []byte(fmt.Sprintf("%s-%d", name, i)),
			}
		}
		return out
	}
	tables := map[string][]engine.PlainRow{
		"Orders":    mkHub(hub),
		"Customers": mkSpoke("cust", spoke),
		"Profiles":  mkSpoke("prof", spoke),
		"Regions":   mkSpoke("reg", spoke),
	}
	for name, rs := range tables {
		tab, err := keys.EncryptTableIndexed(name, rs)
		if err != nil {
			return err
		}
		eng.Upload(tab)
	}

	cat, err := sqlpkg.NewCatalog(
		sqlpkg.TableSchema{Name: "Orders", JoinColumn: "k", Attrs: map[string]int{"selectivity": 0}},
		sqlpkg.TableSchema{Name: "Customers", JoinColumn: "k", Attrs: map[string]int{"selectivity": 0}},
		sqlpkg.TableSchema{Name: "Profiles", JoinColumn: "k", Attrs: map[string]int{"selectivity": 0}},
		sqlpkg.TableSchema{Name: "Regions", JoinColumn: "k", Attrs: map[string]int{"selectivity": 0}},
	)
	if err != nil {
		return err
	}
	cat.Instrument(reg)
	for _, st := range eng.TableStats() {
		if err := cat.SetStats(st.Name, st.Rows, st.Indexed); err != nil {
			return err
		}
		if err := cat.SetNDV(st.Name, st.NDV); err != nil {
			return err
		}
	}

	const where3 = `Orders.k = Customers.k AND Orders.k = Profiles.k AND Customers.selectivity = 'pick'`
	threeWay := `SELECT * FROM Orders, Customers, Profiles WHERE ` + where3
	threeWayKeys := `SELECT Orders.k, Customers.k, Profiles.k FROM Orders, Customers, Profiles WHERE ` + where3
	fourWay := `SELECT * FROM Orders, Customers, Profiles, Regions WHERE ` + where3 + ` AND Orders.k = Regions.k`

	runs := []struct {
		label string
		query string
		semi  bool
	}{
		{"3way_full", threeWay, false},
		{"3way_semijoin", threeWay, true},
		{"3way_semijoin_keyonly", threeWayKeys, true},
		{"4way_full", fourWay, false},
		{"4way_semijoin", fourWay, true},
	}
	decCtr := reg.Get("sj_rows_decrypted_total").(*metrics.Counter)
	report := &benchReport{Fig: "semijoin", Rows: rows}
	report.Baseline = &baselineRef{
		Fig: "multijoin", Label: "3way_stats_ordered", Seconds: preSemiJoin3WaySeconds,
		Source: "BENCH_multijoin.json as committed before semi-join candidate propagation",
	}
	byLabel := map[string]benchSeries{}
	fmt.Println("mode                   seconds  result_rows  revealed_pairs  rows_decrypted_per_step")
	for _, run := range runs {
		cat.SetSemiJoin(run.semi)
		plan, err := cat.Compile(run.query)
		if err != nil {
			return err
		}
		var chain []string
		for _, st := range plan.Steps {
			chain = append(chain, st.Left.Table+"x"+st.Right.Table)
		}
		runner := &decRunner{inner: sqlpkg.EngineRunner(eng, keys), ctr: decCtr}
		n := 0
		start := time.Now()
		revealed, err := sqlpkg.Execute(runner, plan, func(sqlpkg.ResultRow) error { n++; return nil })
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		perStep := runner.finish()
		var stepStrs []string
		for _, d := range perStep {
			stepStrs = append(stepStrs, fmt.Sprintf("%d", d))
		}
		fmt.Printf("%-21s  %7.3f  %11d  %14d  %s\n",
			run.label, elapsed.Seconds(), n, revealed, strings.Join(stepStrs, "/"))
		s := benchSeries{
			Label: run.label, Seconds: elapsed.Seconds(), Matches: n,
			RevealedPairs: revealed, Chain: strings.Join(chain, " -> "),
			RowsDecryptedPerStep: perStep,
		}
		report.Series = append(report.Series, s)
		byLabel[run.label] = s
	}
	cat.SetSemiJoin(true)

	summary := &semijoinSummary{}
	if s := byLabel["3way_semijoin"]; s.Seconds > 0 {
		summary.Speedup3WayVsBaseline = preSemiJoin3WaySeconds / s.Seconds
		summary.Speedup3Way = byLabel["3way_full"].Seconds / s.Seconds
		if len(s.RowsDecryptedPerStep) > 1 {
			summary.Step2RowsSemiJoin = s.RowsDecryptedPerStep[1]
		}
	}
	if s := byLabel["3way_full"]; len(s.RowsDecryptedPerStep) > 1 {
		summary.Step2RowsFull = s.RowsDecryptedPerStep[1]
	}
	if s := byLabel["4way_semijoin"]; s.Seconds > 0 {
		summary.Speedup4Way = byLabel["4way_full"].Seconds / s.Seconds
	}
	report.SemiJoin = summary
	fmt.Printf("3-way semi-join: %.2fx vs pre-semi-join baseline, %.2fx in-figure; 4-way in-figure %.2fx; step 2 decrypts %d -> %d rows\n\n",
		summary.Speedup3WayVsBaseline, summary.Speedup3Way, summary.Speedup4Way,
		summary.Step2RowsFull, summary.Step2RowsSemiJoin)

	report.Histograms = scrapeHistograms(reg, "sj_join_seconds", "sj_dec_seconds")
	return writeReport(outDir, report)
}

// decryptAblation isolates what each stacked decrypt-path optimization
// buys on one L x R join with a single reused query token: the naive
// per-row Miller loop, the fixed-token precomputed pairing, and the
// engine's decrypt-result cache cold (first execution, every row a
// miss) versus warm (same token re-executed, served from cache). The
// warm run re-reveals only sigma(q) values the server computed in the
// cold run, which is why caching them adds no leakage — and why only
// literal token reuse can hit: a fresh NewQuery carries a fresh join
// key and never matches a cached entry.
func decryptAblation(rows int, outDir string) error {
	fmt.Printf("== Decrypt ablation: naive vs precomputed vs cached (%d rows per table, %d cores) ==\n",
		rows, runtime.GOMAXPROCS(0))

	keys, err := engine.NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		return err
	}
	eng := engine.NewServer()
	eng.SetDecryptCache(64 << 20)
	reg := metrics.NewRegistry()
	eng.Instrument(reg)

	// First ~10% of each table carries the "hot" attribute the
	// prefiltered cold/warm pair below selects on.
	mk := func(n int) []engine.PlainRow {
		out := make([]engine.PlainRow, n)
		for i := range out {
			attr := "bulk"
			if i < (n+9)/10 {
				attr = "hot"
			}
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte(attr)},
				Payload:   []byte(fmt.Sprintf("row-%d", i)),
			}
		}
		return out
	}
	cts := make(map[string][]*securejoin.RowCiphertext, 2)
	for _, name := range []string{"L", "R"} {
		tab, err := keys.EncryptTableIndexed(name, mk(rows))
		if err != nil {
			return err
		}
		eng.Upload(tab)
		rcs := make([]*securejoin.RowCiphertext, len(tab.Rows))
		for i, r := range tab.Rows {
			rcs[i] = r.Join
		}
		cts[name] = rcs
	}

	// One query for every mode: the cache keys on the token bytes.
	q, err := keys.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		return err
	}

	report := &benchReport{Fig: "decrypt", Rows: rows}
	addSeries := func(mode string, seconds float64, matches int) {
		fmt.Printf("%-24s  %8.3f  %7d\n", mode, seconds, matches)
		report.Series = append(report.Series, benchSeries{
			Mode: mode, Seconds: seconds, Matches: matches,
		})
	}
	fmt.Println("mode                       seconds  matches")

	// 1. Naive: a full Miller loop per row, token side re-derived
	// every time.
	start := time.Now()
	da, err := securejoin.DecryptTable(q.TokenA, cts["L"])
	if err != nil {
		return err
	}
	db, err := securejoin.DecryptTable(q.TokenB, cts["R"])
	if err != nil {
		return err
	}
	addSeries("naive", time.Since(start).Seconds(), len(securejoin.HashJoin(da, db)))

	// 2. Precomputed: record each token's Miller program once, replay
	// it against every row.
	start = time.Now()
	da, err = securejoin.DecryptTableWith(q.TokenA.Precompute(), cts["L"])
	if err != nil {
		return err
	}
	db, err = securejoin.DecryptTableWith(q.TokenB.Precompute(), cts["R"])
	if err != nil {
		return err
	}
	addSeries("precomputed", time.Since(start).Seconds(), len(securejoin.HashJoin(da, db)))

	// 3 + 4. End-to-end through the engine (precomputed + parallel
	// workers), first with a cold decrypt cache, then re-executing the
	// same query so every row is served from cache.
	engineJoin := func(mode string, spec engine.JoinSpec) (float64, error) {
		start := time.Now()
		st, err := eng.OpenJoin("L", "R", spec)
		if err != nil {
			return 0, err
		}
		res, _, err := st.Drain()
		if err != nil {
			return 0, err
		}
		secs := time.Since(start).Seconds()
		addSeries(mode, secs, len(res))
		return secs, nil
	}
	before := eng.DecryptCacheStats()
	coldSecs, err := engineJoin("precomputed_cache_cold", engine.JoinSpec{Query: q})
	if err != nil {
		return err
	}
	mid := eng.DecryptCacheStats()
	warmSecs, err := engineJoin("precomputed_cache_warm", engine.JoinSpec{Query: q})
	if err != nil {
		return err
	}
	after := eng.DecryptCacheStats()

	// 5 + 6. The acceptance case: a repeated *prefiltered* join under
	// its own token — cold decrypts only the candidate rows, warm
	// serves them from cache.
	sel := securejoin.Selection{0: [][]byte{[]byte("hot")}}
	pq, err := keys.NewPrefilterQuery(sel, sel)
	if err != nil {
		return err
	}
	preColdSecs, err := engineJoin("prefiltered_cache_cold", engine.JoinSpec{Prefilter: pq})
	if err != nil {
		return err
	}
	preWarmSecs, err := engineJoin("prefiltered_cache_warm", engine.JoinSpec{Prefilter: pq})
	if err != nil {
		return err
	}

	warmHits := after.Hits - mid.Hits
	warmMisses := after.Misses - mid.Misses
	summary := &decryptCacheSummary{
		ColdMisses:             mid.Misses - before.Misses,
		WarmHits:               warmHits,
		WarmMisses:             warmMisses,
		ColdSeconds:            coldSecs,
		WarmSeconds:            warmSecs,
		PrefilteredColdSeconds: preColdSecs,
		PrefilteredWarmSeconds: preWarmSecs,
	}
	if warmHits+warmMisses > 0 {
		summary.WarmHitRate = float64(warmHits) / float64(warmHits+warmMisses)
	}
	if warmSecs > 0 {
		summary.WarmSpeedup = coldSecs / warmSecs
	}
	if preWarmSecs > 0 {
		summary.PrefilteredWarmSpeedup = preColdSecs / preWarmSecs
	}
	report.DecryptCache = summary
	fmt.Printf("warm hit rate %.2f (%d of %d), warm speedup %.1fx over cold (prefiltered: %.1fx)\n\n",
		summary.WarmHitRate, warmHits, warmHits+warmMisses,
		summary.WarmSpeedup, summary.PrefilteredWarmSpeedup)

	report.Histograms = scrapeHistograms(reg, "sj_join_seconds", "sj_dec_seconds")
	return writeReport(outDir, report)
}

// shardAblation measures scatter-gather join wall time as the cluster
// width grows: the same two tables hash-sharded over 1, 2 and 4
// loopback sjservers, the same unrestricted L x R join scattered to
// every shard. Each shard decrypts only its partition, so with real
// cores behind the servers the wall clock is the slowest shard — but
// the join is CPU-bound in SJ.Dec, and N in-process servers
// time-slicing one core serialize right back to the 1-server cost; the
// report's shard summary records that ceiling whenever the host cannot
// show the win.
func shardAblation(rows int, outDir string) error {
	cores := runtime.GOMAXPROCS(0)
	fmt.Printf("== Shard ablation: scatter-gather over 1/2/4 servers (%d rows per table, %d cores) ==\n",
		rows, cores)

	keys, err := engine.NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		return err
	}
	mk := func(side string) []engine.PlainRow {
		out := make([]engine.PlainRow, rows)
		for i := range out {
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte("x")},
				Payload:   []byte(fmt.Sprintf("%s-%d", side, i)),
			}
		}
		return out
	}
	tables := map[string][]engine.PlainRow{"L": mk("left"), "R": mk("right")}

	report := &benchReport{Fig: "shard", Rows: rows}
	report.Histograms = make(map[string]histSummary)
	summary := &shardSummary{Cores: cores}
	var baseline float64
	fmt.Println("servers  seconds  matches  revealed_pairs  speedup_vs_1")
	for _, n := range []int{1, 2, 4} {
		var addrs []string
		var srvs []*server.Server
		for i := 0; i < n; i++ {
			srv := server.New(nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			srvs = append(srvs, srv)
			addrs = append(addrs, addr)
		}
		clu, err := client.DialClusterWithKeys(addrs, keys)
		if err != nil {
			return err
		}
		for name, rs := range tables {
			if err := clu.Upload(name, rs); err != nil {
				return err
			}
		}
		start := time.Now()
		results, revealed, err := clu.Join("L", "R", securejoin.Selection{}, securejoin.Selection{}, client.JoinOpts{})
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		speedup := 1.0
		if n == 1 {
			baseline = elapsed
		} else if elapsed > 0 {
			speedup = baseline / elapsed
		}
		switch n {
		case 2:
			summary.Speedup2 = speedup
		case 4:
			summary.Speedup4 = speedup
		}
		label := fmt.Sprintf("%d_servers", n)
		fmt.Printf("%7d  %7.3f  %7d  %14d  %12.2f\n", n, elapsed, len(results), revealed, speedup)
		report.Series = append(report.Series, benchSeries{
			Label: label, Seconds: elapsed, Matches: len(results), RevealedPairs: revealed,
		})
		// Per-shard wall times from the cluster's own registry — the
		// straggler profile a dashboard would scrape.
		if hv, ok := clu.Registry().Get("sj_cluster_shard_seconds").(*metrics.HistogramVec); ok {
			for s := 0; s < n; s++ {
				if hs, ok := summarize(hv.With(fmt.Sprintf("%d", s))); ok {
					report.Histograms[fmt.Sprintf("sj_cluster_shard_seconds{servers=%d,shard=%d}", n, s)] = hs
				}
			}
		}
		clu.Close()
		for _, s := range srvs {
			s.Close()
		}
	}
	if cores < 2 && summary.Speedup2 < 1.5 {
		summary.Note = fmt.Sprintf(
			"join is CPU-bound in SJ.Dec; %d in-process servers time-slice %d core(s), so the >=1.5x-at-2-servers target needs >=2 real cores (scatter-gather verified correct by the cluster conformance suite; re-run on a multi-core host or separate machines)",
			4, cores)
		fmt.Println("note:", summary.Note)
	}
	report.Shard = summary
	fmt.Println()
	return writeReport(outDir, report)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
