// Command sjsql is an interactive encrypted-SQL shell over the
// synthetic TPC-H dataset: it generates Customers, Orders and a derived
// per-customer Profiles table at a small scale factor, encrypts and
// uploads them — to an in-process server by default, or to a live
// sjserver with -connect — and then executes the supported SQL dialect
// read from stdin (or from -query) over the ciphertexts. With
// -servers host1,host2,... the tables are instead hash-sharded on the
// join key across several sjservers and every join step runs
// scatter-gather, one request per shard.
//
// Tables are uploaded with an SSE pre-filter index (disable with
// -index=false), and the planner picks the Section 4.3 prefiltered
// execution automatically whenever a side's predicates are estimated
// selective against its synced row count; multi-table queries compile
// to a left-deep chain of pairwise encrypted joins whose order the
// planner picks from the row statistics. EXPLAIN <query> prints the
// chosen plan (or operator tree) without running it.
//
//	echo "SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey \
//	      WHERE Customers.selectivity = '1/100' AND Orders.selectivity = '1/100'" | sjsql -scale 0.0002
//
//	sjsql -connect 127.0.0.1:7788 -scale 0.0002 \
//	      -query "EXPLAIN SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
//	              JOIN Profiles ON Profiles.custkey = Customers.custkey
//	              WHERE Customers.selectivity = '1/100'"
//
//	sjsql -servers 127.0.0.1:7788,127.0.0.1:7789 -scale 0.0002 \
//	      -query "SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey"
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
	"repro/internal/tpch"
)

func main() {
	scale := flag.Float64("scale", 0.0002, "TPC-H scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	query := flag.String("query", "", "single query to execute (default: read stdin)")
	maxRows := flag.Int("maxrows", 10, "result rows to print per query")
	connect := flag.String("connect", "", "address of a live sjserver; empty runs an in-process engine")
	servers := flag.String("servers", "", "comma-separated addresses of live sjservers; tables are hash-sharded across them and every join runs scatter-gather")
	index := flag.Bool("index", true, "upload tables with SSE pre-filter indexes (enables prefiltered plans)")
	workers := flag.Int("workers", 0, "SJ.Dec worker hint stamped onto every plan (0 = engine default)")
	async := flag.Bool("async", false, "submit every plan step as a server-side job, then attach and stitch (requires -connect or -servers)")
	flag.Parse()

	if *async && *connect == "" && *servers == "" {
		fmt.Fprintln(os.Stderr, "sjsql: -async requires -connect or -servers (jobs live on a wire server)")
		os.Exit(1)
	}
	if *connect != "" && *servers != "" {
		fmt.Fprintln(os.Stderr, "sjsql: -connect and -servers are mutually exclusive (-servers with one address is the one-shard cluster)")
		os.Exit(1)
	}
	if err := run(os.Stdout, *scale, *seed, *query, *maxRows, *connect, *servers, *index, *workers, *async); err != nil {
		fmt.Fprintln(os.Stderr, "sjsql:", err)
		os.Exit(1)
	}
}

// app binds the compiled catalog to exactly one execution backend,
// picked at connect time: runner is the one plan-step runner over that
// backend's transport — the in-process engine, a wire connection to a
// live sjserver, or a sharded cluster of sjservers, the wire ones
// synchronous or (-async) through the servers' job queues.
type app struct {
	catalog *sql.Catalog
	maxRows int
	out     io.Writer
	runner  sql.StepRunner
	// retry bounds the whole-plan re-run after a shed (see exec).
	retry client.RetryConfig
}

func run(out io.Writer, scale float64, seed int64, query string, maxRows int, connect, servers string, index bool, workers int, async bool) error {
	a, cleanup, err := setup(out, scale, seed, maxRows, connect, servers, index, workers, async)
	if err != nil {
		return err
	}
	defer cleanup()

	if query != "" {
		return a.exec(query)
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(os.Stderr, "enter queries, one per line (join column: custkey; filterable: selectivity; tables: Customers, Orders, Profiles; EXPLAIN <query> shows the plan)")
	for scanner.Scan() {
		stmt := strings.TrimSpace(scanner.Text())
		if stmt == "" {
			continue
		}
		if err := a.exec(stmt); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
	return scanner.Err()
}

// setup generates and encrypts the TPC-H tables, uploads them to the
// chosen backend, and syncs the catalog's statistics (row counts and
// index state) from the backend's table state so the planner orders
// joins and picks prefiltered execution from what is actually stored.
func setup(out io.Writer, scale float64, seed int64, maxRows int, connect, servers string, index bool, workers int, async bool) (*app, func(), error) {
	catalog, err := sql.NewCatalog(
		sql.TableSchema{Name: "Customers", JoinColumn: "custkey", Attrs: map[string]int{"selectivity": 0}},
		sql.TableSchema{Name: "Orders", JoinColumn: "custkey", Attrs: map[string]int{"selectivity": 0}},
		sql.TableSchema{Name: "Profiles", JoinColumn: "custkey", Attrs: map[string]int{"selectivity": 0}},
	)
	if err != nil {
		return nil, nil, err
	}
	catalog.SetDefaultWorkers(workers)

	fmt.Fprintf(os.Stderr, "generating and encrypting TPC-H data at scale %g...\n", scale)
	ds := tpch.Generate(scale, seed)
	customers := make([]engine.PlainRow, len(ds.Customers))
	profiles := make([]engine.PlainRow, len(ds.Customers))
	for i, c := range ds.Customers {
		customers[i] = engine.PlainRow{
			JoinValue: tpch.CustomerJoinValue(c),
			Attrs:     [][]byte{[]byte(c.Selectivity)},
			Payload:   []byte(fmt.Sprintf("%s (%s)", c.Name, c.MktSegment)),
		}
		// The derived per-customer profile: same join key domain, so
		// 3-way queries chain Customers x Orders x Profiles.
		profiles[i] = engine.PlainRow{
			JoinValue: tpch.CustomerJoinValue(c),
			Attrs:     [][]byte{[]byte(c.Selectivity)},
			Payload:   []byte(fmt.Sprintf("profile %d: %s, %s", c.CustKey, c.Phone, c.Address)),
		}
	}
	orders := make([]engine.PlainRow, len(ds.Orders))
	for i, o := range ds.Orders {
		orders[i] = engine.PlainRow{
			JoinValue: tpch.OrderJoinValue(o),
			Attrs:     [][]byte{[]byte(o.Selectivity)},
			Payload:   []byte(fmt.Sprintf("order %d ($%.2f, %s)", o.OrderKey, o.TotalPrice, o.OrderDate)),
		}
	}

	a := &app{catalog: catalog, maxRows: maxRows, out: out}
	params := securejoin.Params{M: 1, T: 10}
	tables := map[string][]engine.PlainRow{"Customers": customers, "Orders": orders, "Profiles": profiles}
	start := time.Now()

	// Sharded mode: hash-partition every table across the listed
	// servers; each query then scatters one request per shard and the
	// merged streams are stitched exactly like a single server's.
	if servers != "" {
		addrs := strings.Split(servers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		clu, err := client.DialCluster(addrs, params)
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() { clu.Close() }
		for name, rows := range tables {
			if index {
				err = clu.UploadIndexed(name, rows)
			} else {
				err = clu.Upload(name, rows)
			}
			if err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		if _, err := clu.SyncCatalog(catalog); err != nil {
			cleanup()
			return nil, nil, err
		}
		// No whole-plan retry: the cluster retries a shed shard
		// individually while the other shards keep streaming (degraded
		// mode lives per backend, inside the scatter).
		a.runner, a.retry = clu.Runner(async), client.RetryConfig{Attempts: 1}
		fmt.Fprintf(os.Stderr, "uploaded %d customers + %d orders + %d profiles sharded over %d servers in %v (indexed=%v)\n",
			len(customers), len(orders), len(profiles), clu.Shards(), time.Since(start).Round(time.Millisecond), index)
		return a, cleanup, nil
	}

	if connect == "" {
		keys, err := engine.NewClient(params, nil)
		if err != nil {
			return nil, nil, err
		}
		eng := engine.NewServer()
		for name, rows := range tables {
			var enc *engine.EncryptedTable
			if index {
				enc, err = keys.EncryptTableIndexed(name, rows)
			} else {
				enc, err = keys.EncryptTable(name, rows)
			}
			if err != nil {
				return nil, nil, err
			}
			eng.Upload(enc)
		}
		for _, st := range eng.TableStats() {
			if err := catalog.SetStats(st.Name, st.Rows, st.Indexed); err != nil {
				return nil, nil, err
			}
			if err := catalog.SetNDV(st.Name, st.NDV); err != nil {
				return nil, nil, err
			}
		}
		a.runner = sql.EngineRunner(eng, keys)
		fmt.Fprintf(os.Stderr, "uploaded %d customers + %d orders + %d profiles in-process in %v (indexed=%v)\n",
			len(customers), len(orders), len(profiles), time.Since(start).Round(time.Millisecond), index)
		return a, func() {}, nil
	}

	cli, err := client.Dial(connect, params)
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { cli.Close() }
	for name, rows := range tables {
		if index {
			err = cli.UploadIndexed(name, rows)
		} else {
			err = cli.Upload(name, rows)
		}
		if err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	if _, err := cli.SyncCatalog(catalog); err != nil {
		cleanup()
		return nil, nil, err
	}
	a.runner = cli.Runner(async)
	fmt.Fprintf(os.Stderr, "uploaded %d customers + %d orders + %d profiles to %s in %v (indexed=%v)\n",
		len(customers), len(orders), len(profiles), connect, time.Since(start).Round(time.Millisecond), index)
	return a, cleanup, nil
}

// exec compiles one statement and either renders its plan (EXPLAIN) or
// runs it on the app's backend through the operator-tree executor,
// streaming stitched result rows as the final join step arrives.
func (a *app) exec(stmt string) error {
	plan, err := a.catalog.Compile(stmt)
	if err != nil {
		return err
	}
	if plan.Explain {
		fmt.Fprint(a.out, plan.Describe())
		return nil
	}
	qStart := time.Now()
	printed, total := 0, 0
	emit := func(r sql.ResultRow) error {
		if printed < a.maxRows {
			var line bytes.Buffer
			for i, p := range r.Payloads {
				if i > 0 {
					line.WriteString(" | ")
				}
				line.Write(p)
			}
			fmt.Fprintf(a.out, "  %s\n", line.Bytes())
			printed++
		}
		total++
		return nil
	}

	// A shed step (client.ErrOverloaded) is rejected by admission control
	// — at submit, or before a sync join streams its first batch — and
	// only the last step emits, so no row was emitted yet and re-running
	// the whole plan is safe (jobs an aborted attempt already submitted
	// just run and expire with the job TTL).
	var revealed int
	err = client.WithRetry(a.retry, func() error {
		var rerr error
		revealed, rerr = sql.Execute(a.runner, plan, emit)
		return rerr
	})
	if err != nil {
		return err
	}
	if total > printed {
		fmt.Fprintf(a.out, "... %d more\n", total-printed)
	}
	fmt.Fprintf(a.out, "%d rows in %v via %s plan, %d join step(s) (%d equality pairs observed)\n",
		total, time.Since(qStart).Round(time.Millisecond), plan.Strategy, len(plan.Steps), revealed)
	return nil
}
