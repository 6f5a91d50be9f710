// Command sjclient is the data-owner CLI for a running sjserver. It
// manages the client key file, encrypts and uploads CSV tables, and
// runs SQL join queries whose results are decrypted locally.
//
//	sjclient keygen -keys client.key -m 1 -t 10
//	sjclient upload -keys client.key -addr 127.0.0.1:7788 \
//	    -table Customers -csv customers.csv -join custkey -attrs selectivity -index
//	sjclient join -keys client.key -addr 127.0.0.1:7788 \
//	    -catalog "Customers:custkey:selectivity;Orders:custkey:selectivity" \
//	    -query "SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
//	            WHERE Customers.selectivity = '1/100'"
//
// join syncs the catalog's row counts and index state from the server
// and compiles every statement to a plan: a query of any number of
// tables runs as a left-deep chain of pairwise encrypted joins, stitched
// client-side, in the order the planner picks from those statistics.
// A side whose table was uploaded with -index and whose predicates are
// estimated selective is prefiltered through its SSE index, so the
// server runs SJ.Dec only over candidate rows, at the cost of
// per-attribute access-pattern leakage. EXPLAIN <query> prints the plan
// without running it. Without -query, join reads one statement per line
// from stdin.
//
// -addr takes a comma-separated list of sjservers. Give upload and join
// the same list, in the same order, and every table is hash-partitioned
// on the join key across them at encrypt time; every join step then
// scatters one request per server and merges the decrypted streams
// client-side. One address is the one-server case of the same path.
//
//	sjclient upload -keys client.key -addr 127.0.0.1:7788,127.0.0.1:7789 \
//	    -table Customers -csv customers.csv -join custkey -attrs selectivity -index
//	sjclient join -keys client.key -addr 127.0.0.1:7788,127.0.0.1:7789 \
//	    -catalog "Customers:custkey:selectivity;Orders:custkey:selectivity" \
//	    -query "SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey"
package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
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
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "keygen":
		err = cmdKeygen(os.Args[2:])
	case "upload":
		err = cmdUpload(os.Args[2:])
	case "join":
		err = cmdJoin(os.Args[2:], os.Stdin, os.Stdout)
	case "job":
		err = cmdJob(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjclient:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sjclient <keygen|upload|join|job> [flags]
  keygen  generate a client key file
  upload  encrypt a CSV table and upload it
  join    run SQL join queries (-query, or one per line of stdin) and
          decrypt the results (-async submits a two-table query as a
          server-side job and prints the job ID)
  job     check on (-status) or collect results of a submitted job (-id)`)
}

func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	keys := fs.String("keys", "client.key", "key file to create")
	m := fs.Int("m", 1, "filterable attributes per row")
	t := fs.Int("t", 10, "maximum IN-clause size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := engine.NewClient(securejoin.Params{M: *m, T: *t}, nil)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(*keys, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.ExportKeys(f); err != nil {
		return err
	}
	fmt.Printf("wrote key file %s (M=%d, T=%d)\n", *keys, *m, *t)
	return nil
}

// dial loads the key file and connects to the servers of an -addr list.
func dial(keysPath, addrs string) (*client.Cluster, error) {
	f, err := os.Open(keysPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys, err := engine.LoadClientKeys(f)
	if err != nil {
		return nil, err
	}
	return client.DialClusterWithKeys(splitCols(addrs), keys)
}

// addrUsage documents -addr, which every subcommand that dials shares.
const addrUsage = "server address, or a comma-separated list of them that tables are hash-sharded across on the join key (give upload, join and job the same list)"

func cmdUpload(args []string) error {
	fs := flag.NewFlagSet("upload", flag.ExitOnError)
	keys := fs.String("keys", "client.key", "key file")
	addr := fs.String("addr", "127.0.0.1:7788", addrUsage)
	table := fs.String("table", "", "table name")
	csvPath := fs.String("csv", "", "CSV file with a header row")
	joinCol := fs.String("join", "", "name of the join column")
	attrCols := fs.String("attrs", "", "comma-separated filterable columns (in attribute order)")
	index := fs.Bool("index", false, "also build and upload the SSE pre-filter index (lets the join planner choose prefiltered execution)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *table == "" || *csvPath == "" || *joinCol == "" {
		return fmt.Errorf("upload requires -table, -csv and -join")
	}

	rows, err := readCSVRows(*csvPath, *joinCol, splitCols(*attrCols))
	if err != nil {
		return err
	}
	clu, err := dial(*keys, *addr)
	if err != nil {
		return err
	}
	defer clu.Close()
	upload := clu.Upload
	if *index {
		upload = clu.UploadIndexed
	}
	if err := upload(*table, rows); err != nil {
		return err
	}
	fmt.Printf("uploaded %d encrypted rows as table %s", len(rows), *table)
	if clu.Shards() > 1 {
		fmt.Printf(", sharded over %d servers", clu.Shards())
	}
	if *index {
		fmt.Print(" (with SSE pre-filter index)")
	}
	fmt.Println()
	return nil
}

// cmdJoin runs SQL statements — -query, or one per line of stdin —
// against the catalog synced from the backend. Every statement is
// compiled to a plan: EXPLAIN prints it, -async submits a one-step plan
// as a job, and anything else runs through sql.Execute.
func cmdJoin(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	keys := fs.String("keys", "client.key", "key file")
	addr := fs.String("addr", "127.0.0.1:7788", addrUsage)
	catalogSpec := fs.String("catalog", "", "schemas as Name:joincol:attr1,attr2;Name2:...")
	query := fs.String("query", "", "SQL statement to run (default: one statement per line of stdin)")
	maxRows := fs.Int("maxrows", 20, "result rows to print per statement")
	async := fs.Bool("async", false, "submit the join as a server-side job and exit; collect results later with sjclient job -id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *catalogSpec == "" {
		return fmt.Errorf("join requires -catalog")
	}
	catalog, err := parseCatalog(*catalogSpec)
	if err != nil {
		return err
	}
	// Fail fast on flag/plan mismatches before any key material is
	// loaded or server dialed. The step count does not depend on the
	// statistics the sync below brings in.
	if *query != "" {
		plan, err := catalog.Compile(*query)
		if err != nil {
			return err
		}
		if *async && len(plan.Steps) > 1 {
			return fmt.Errorf("-async applies only to two-table queries; multi-join plans stitch intermediates client-side")
		}
	}
	clu, err := dial(*keys, *addr)
	if err != nil {
		return err
	}
	defer clu.Close()
	// Sync row counts and index state from the backend, so the planner
	// orders joins and chooses prefiltered execution from what is stored.
	if _, err := clu.SyncCatalog(catalog); err != nil {
		return err
	}

	exec := func(stmt string) error {
		plan, err := catalog.Compile(stmt)
		if err != nil {
			return err
		}
		if plan.Explain {
			fmt.Fprint(out, plan.Describe())
			return nil
		}
		// A job's result is spooled durably on the server until
		// collected with sjclient job -id or reaped by the job TTL.
		if *async {
			info, err := clu.SubmitPlan(plan)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "submitted job %s (%s JOIN %s, state %s)\n", info.ID, info.TableA, info.TableB, info.State)
			fmt.Fprintf(out, "collect with: sjclient job -addr %s -id %s\n", *addr, info.ID)
			return nil
		}
		start := time.Now()
		rows := rowPrinter{out: out, max: *maxRows}
		// A shard that sheds a step is retried by the cluster on its own.
		revealed, err := clu.ExecutePlan(plan, func(r sql.ResultRow) error {
			rows.print(r.Payloads...)
			return nil
		})
		if err != nil {
			return err
		}
		rows.more()
		fmt.Fprintf(out, "%d rows in %v via %s plan, %d join step(s) (%d equality pairs observed)\n",
			rows.total, time.Since(start).Round(time.Millisecond), plan.Strategy, len(plan.Steps), revealed)
		return nil
	}
	if *query != "" {
		return exec(*query)
	}
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		if stmt := strings.TrimSpace(scanner.Text()); stmt != "" {
			if err := exec(stmt); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
	}
	return scanner.Err()
}

// rowPrinter prints the first max result rows, columns separated by
// " | ", and counts every row.
type rowPrinter struct {
	out            io.Writer
	max            int
	printed, total int
}

func (p *rowPrinter) print(cols ...[]byte) {
	if p.printed < p.max {
		fmt.Fprintf(p.out, "  %s\n", bytes.Join(cols, []byte(" | ")))
		p.printed++
	}
	p.total++
}

// more prints how many rows went unprinted, if any did.
func (p *rowPrinter) more() {
	if p.total > p.printed {
		fmt.Fprintf(p.out, "... %d more\n", p.total-p.printed)
	}
}

// cmdJob checks on or collects a join submitted with join -async. The
// attach may come from any connection — a fresh process, after the
// submitter exited, even after a server restart — because completed
// results are spooled in the server's data directory.
func cmdJob(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("job", flag.ExitOnError)
	keys := fs.String("keys", "client.key", "key file")
	addr := fs.String("addr", "127.0.0.1:7788", addrUsage)
	id := fs.String("id", "", "job ID printed by join -async")
	status := fs.Bool("status", false, "print the job's state and progress instead of waiting for its results")
	maxRows := fs.Int("maxrows", 20, "result rows to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("job requires -id")
	}
	clu, err := dial(*keys, *addr)
	if err != nil {
		return err
	}
	defer clu.Close()

	if *status {
		info, err := clu.JobStatus(*id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "job %s: %s (%s JOIN %s)\n", info.ID, info.State, info.TableA, info.TableB)
		fmt.Fprintf(out, "  rows decrypted: %d, steps done: %d, pairs revealed: %d\n",
			info.RowsDecrypted, info.StepsDone, info.RevealedPairs)
		if info.State == "done" {
			fmt.Fprintf(out, "  result rows: %d\n", info.ResultRows)
		}
		if info.Err != "" {
			fmt.Fprintf(out, "  error: %s\n", info.Err)
		}
		return nil
	}

	results, revealed, err := clu.WaitJob(*id)
	if err != nil {
		return err
	}
	rows := rowPrinter{out: out, max: *maxRows}
	for _, r := range results {
		rows.print(r.PayloadA, r.PayloadB)
	}
	rows.more()
	fmt.Fprintf(out, "%d rows (%d equality pairs observed by server)\n", rows.total, revealed)
	return nil
}

// parseCatalog parses "Name:joincol:attr1,attr2;Name2:joincol2:..."
func parseCatalog(spec string) (*sql.Catalog, error) {
	var schemas []sql.TableSchema
	for _, part := range strings.Split(spec, ";") {
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("bad catalog entry %q (want Name:joincol[:attrs])", part)
		}
		s := sql.TableSchema{Name: fields[0], JoinColumn: fields[1], Attrs: map[string]int{}}
		if len(fields) == 3 {
			for i, a := range splitCols(fields[2]) {
				s.Attrs[a] = i
			}
		}
		schemas = append(schemas, s)
	}
	return sql.NewCatalog(schemas...)
}

func splitCols(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// readCSVRows loads a CSV with a header and maps it onto engine rows:
// join column -> JoinValue, attribute columns -> Attrs (in order), and
// the full record (pipe-joined) as the payload.
func readCSVRows(path, joinCol string, attrCols []string) ([]engine.PlainRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 1 {
		return nil, fmt.Errorf("%s: empty CSV", path)
	}
	header := recs[0]
	colIdx := func(name string) (int, error) {
		for i, h := range header {
			if strings.EqualFold(h, name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("%s: no column %q (header: %v)", path, name, header)
	}
	jIdx, err := colIdx(joinCol)
	if err != nil {
		return nil, err
	}
	aIdx := make([]int, len(attrCols))
	for i, a := range attrCols {
		if aIdx[i], err = colIdx(a); err != nil {
			return nil, err
		}
	}

	rows := make([]engine.PlainRow, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		attrs := make([][]byte, len(aIdx))
		for i, idx := range aIdx {
			attrs[i] = []byte(rec[idx])
		}
		rows = append(rows, engine.PlainRow{
			JoinValue: []byte(rec[jIdx]),
			Attrs:     attrs,
			Payload:   []byte(strings.Join(rec, "|")),
		})
	}
	return rows, nil
}
