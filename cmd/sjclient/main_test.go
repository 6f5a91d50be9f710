package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/tpch"
)

func TestParseCatalog(t *testing.T) {
	cat, err := parseCatalog("Customers:custkey:selectivity,segment;Orders:custkey:selectivity")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.Schema("customers")
	if err != nil {
		t.Fatal(err)
	}
	if s.JoinColumn != "custkey" {
		t.Fatalf("join column = %q", s.JoinColumn)
	}
	if s.Attrs["selectivity"] != 0 || s.Attrs["segment"] != 1 {
		t.Fatalf("attrs = %v", s.Attrs)
	}
	// Table without filterable attributes.
	cat2, err := parseCatalog("T:k")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cat2.Schema("T")
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Attrs) != 0 {
		t.Fatalf("attrs = %v", s2.Attrs)
	}
}

func TestParseCatalogErrors(t *testing.T) {
	for _, spec := range []string{"", "OnlyName", "A:b:c:d", "T:k;T:k"} {
		if _, err := parseCatalog(spec); err == nil {
			t.Errorf("accepted bad catalog spec %q", spec)
		}
	}
}

func TestSplitCols(t *testing.T) {
	if got := splitCols(""); got != nil {
		t.Fatalf("splitCols(\"\") = %v", got)
	}
	got := splitCols("a, b ,c")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("splitCols = %v", got)
	}
}

func TestReadCSVRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	content := "id,color,size\n1,red,L\n2,blue,S\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := readCSVRows(path, "id", []string{"color", "size"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if string(rows[0].JoinValue) != "1" {
		t.Fatalf("join value = %q", rows[0].JoinValue)
	}
	if string(rows[0].Attrs[0]) != "red" || string(rows[0].Attrs[1]) != "L" {
		t.Fatalf("attrs = %q", rows[0].Attrs)
	}
	if string(rows[1].Payload) != "2|blue|S" {
		t.Fatalf("payload = %q", rows[1].Payload)
	}

	// Header names are matched case-insensitively.
	if _, err := readCSVRows(path, "ID", []string{"COLOR"}); err != nil {
		t.Fatal(err)
	}
	// Missing columns are rejected.
	if _, err := readCSVRows(path, "nope", nil); err == nil {
		t.Fatal("missing join column accepted")
	}
	if _, err := readCSVRows(path, "id", []string{"nope"}); err == nil {
		t.Fatal("missing attribute column accepted")
	}
	if _, err := readCSVRows(filepath.Join(dir, "absent.csv"), "id", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestJoinFlagPlanMismatchFailsFast: -async on a plan no single job
// can hold must be rejected right after planning — before the key file
// is read or any server dialed. The key file here does not exist and no
// server is running, so the test only passes if validation happens
// first.
func TestJoinFlagPlanMismatchFailsFast(t *testing.T) {
	catalog := "A:k;B:k;C:k"
	query := "SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON A.k = C.k"
	base := []string{"-keys", filepath.Join(t.TempDir(), "absent.key"), "-catalog", catalog, "-query", query}

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"async multi-join", append([]string{"-async"}, base...), "-async applies only to two-table queries"},
		{"async multi-join over two servers", append([]string{"-async", "-addr", "127.0.0.1:1,127.0.0.1:2"}, base...), "-async applies only to two-table queries"},
	} {
		err := cmdJoin(tc.args, strings.NewReader(""), io.Discard)
		if err == nil {
			t.Fatalf("%s: cmdJoin accepted the mismatched flags", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q (validation ran too late?)", tc.name, err, tc.want)
		}
	}
}

// tpchFixture is a key file plus the TPC-H Customers and Orders CSVs,
// as cmd/tpchgen writes them, in a test's temp dir.
type tpchFixture struct{ keys, customers, orders string }

func newTPCHFixture(t *testing.T, scale float64) tpchFixture {
	t.Helper()
	dir := t.TempDir()
	f := tpchFixture{
		keys:      filepath.Join(dir, "client.key"),
		customers: filepath.Join(dir, "customers.csv"),
		orders:    filepath.Join(dir, "orders.csv"),
	}
	ds := tpch.Generate(scale, 1)
	var cbuf, obuf bytes.Buffer
	if err := tpch.WriteCustomersCSV(&cbuf, ds.Customers); err != nil {
		t.Fatal(err)
	}
	if err := tpch.WriteOrdersCSV(&obuf, ds.Orders); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.customers, cbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.orders, obuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdKeygen([]string{"-keys", f.keys, "-m", "1", "-t", "10"}); err != nil {
		t.Fatal(err)
	}
	return f
}

// startServers runs n in-process sjservers and returns the -addr flag
// that points sjclient at them.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		srv := server.New(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr)
	}
	return []string{"-addr", strings.Join(addrs, ",")}
}

// upload stores Customers, Orders and, from customers.csv again, the
// per-customer Profiles table that 3-way joins chain through.
func (f tpchFixture) upload(t *testing.T, target []string, index bool) {
	t.Helper()
	for _, tbl := range []struct{ name, csv string }{
		{"Customers", f.customers}, {"Orders", f.orders}, {"Profiles", f.customers},
	} {
		args := append([]string{"-keys", f.keys, "-table", tbl.name, "-csv", tbl.csv,
			"-join", "custkey", "-attrs", "selectivity", fmt.Sprintf("-index=%v", index)}, target...)
		if err := cmdUpload(args); err != nil {
			t.Fatal(err)
		}
	}
}

const tpchCatalog = "Customers:custkey:selectivity;Orders:custkey:selectivity;Profiles:custkey:selectivity"

// join runs sjclient join against target, statements from -query or,
// when query is empty, from stdin, and returns what it printed.
func (f tpchFixture) join(t *testing.T, target []string, query, stdin string, extra ...string) string {
	t.Helper()
	args := append([]string{"-keys", f.keys, "-catalog", tpchCatalog, "-maxrows", "100"}, target...)
	if query != "" {
		args = append(args, "-query", query)
	}
	var out bytes.Buffer
	if err := cmdJoin(append(args, extra...), strings.NewReader(stdin), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

const (
	twoWay = `SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
		WHERE Customers.selectivity = 'none'`
	threeWay = `SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
		JOIN Profiles ON Profiles.custkey = Customers.custkey WHERE Customers.selectivity = 'none'`
)

// TestJoinPicksPrefilteredPlanAfterSync: after an indexed upload, join
// syncs row counts and index state from the server, and the planner
// picks the prefiltered plan because the estimated candidate set beats
// the synced row count. No flag asks for it.
func TestJoinPicksPrefilteredPlanAfterSync(t *testing.T) {
	// 7 customers and 75 orders: big enough that one predicate is
	// estimated selective (1 of 7 rows), cheap enough to encrypt here.
	f := newTPCHFixture(t, 0.00005)
	target := startServers(t, 1)
	f.upload(t, target, true)

	explain := f.join(t, target, "EXPLAIN "+twoWay, "")
	mustContain(t, explain,
		"plan: prefiltered",
		"side B: Customers [indexed, 7 rows]",
		"-> prefiltered, 1 SSE token(s), est. 1 candidate row(s)",
		"side A: Orders [indexed, 75 rows]",
		"-> full scan (no WHERE predicates)")

	// With 7 customers every selectivity class floors to 0 rows, so all
	// 7 are 'none' and every one of the 75 orders survives the join.
	mustContain(t, f.join(t, target, twoWay, ""), "75 rows in", "via prefiltered plan")
}

// checkStitched checks every printed row of a 3-way TPC-H join: three
// columns in FROM order (order | customer | profile), the order's
// custkey equal to the customer's, and the profile — uploaded from the
// same CSV — equal to the customer.
func checkStitched(t *testing.T, out string) {
	t.Helper()
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		n++
		cols := strings.Split(strings.TrimSpace(line), " | ")
		if len(cols) != 3 {
			t.Fatalf("stitched row has %d columns: %q", len(cols), line)
		}
		order, customer := strings.Split(cols[0], "|"), strings.Split(cols[1], "|")
		if len(order) != 10 || order[1] != customer[0] || cols[1] != cols[2] {
			t.Fatalf("row not stitched on custkey in FROM order: %q", line)
		}
	}
	if n != 75 {
		t.Fatalf("%d rows printed, want 75:\n%s", n, out)
	}
}

// TestJoinThreeWayOrderAndStitch: a 3-table query over the wire is
// ordered from the synced row counts (Customers and Profiles before
// Orders), EXPLAIN renders the operator tree, and execution stitches
// the pairwise joins into full 3-column rows.
func TestJoinThreeWayOrderAndStitch(t *testing.T) {
	f := newTPCHFixture(t, 0.00005)
	target := startServers(t, 1)
	f.upload(t, target, true)

	mustContain(t, f.join(t, target, "EXPLAIN "+threeWay, ""),
		"plan: 3-table join, 2 pairwise encrypted step(s), left-deep",
		"join order: Customers, Profiles, Orders — row statistics (smallest estimated sides first)",
		"step 1: Customers JOIN Profiles [prefiltered]",
		"step 2: Customers JOIN Orders [prefiltered] (stitch on Customers rows, client-side)")

	// Every order stitches to exactly one customer and one profile.
	out := f.join(t, target, threeWay, "")
	mustContain(t, out, "75 rows in", "2 join step(s)")
	checkStitched(t, out)
}

// TestJoinServersSharded: the tables are hash-sharded over two servers,
// the 3-way join runs scatter-gather, and the stitched result matches
// the single-server one above (75 rows, 2 steps).
func TestJoinServersSharded(t *testing.T) {
	f := newTPCHFixture(t, 0.00005)
	target := startServers(t, 2)
	f.upload(t, target, true)

	out := f.join(t, target, threeWay, "")
	mustContain(t, out, "75 rows in", "2 join step(s)")
	checkStitched(t, out)
}

// TestJoinFallsBackUnindexed: the same tables uploaded without SSE
// indexes plan, and report, a full scan. The statements come from
// stdin, one per line.
func TestJoinFallsBackUnindexed(t *testing.T) {
	f := newTPCHFixture(t, 0.00001)
	target := startServers(t, 1)
	f.upload(t, target, false)

	oneLine := strings.Join(strings.Fields(twoWay), " ")
	out := f.join(t, target, "", "EXPLAIN "+oneLine+"\n\n"+oneLine+"\n")
	mustContain(t, out,
		"plan: full scan",
		"-> full scan (no SSE index)",
		"via full scan plan",
		"15 rows in")
}

// sortedRows returns the printed result rows of sjclient output,
// sorted: shards merge in arrival order.
func sortedRows(out string) []string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") {
			rows = append(rows, line)
		}
	}
	sort.Strings(rows)
	return rows
}

// TestJoinAsyncSharded: a two-table join submitted with -async over two
// servers prints one composite job ID, and job -id with the same -addr
// list collects the rows the synchronous sharded join prints.
func TestJoinAsyncSharded(t *testing.T) {
	f := newTPCHFixture(t, 0.00005)
	target := startServers(t, 2)
	f.upload(t, target, true)

	const query = "SELECT * FROM Customers JOIN Orders ON Customers.custkey = Orders.custkey"
	sync := f.join(t, target, query, "")
	mustContain(t, sync, "75 rows in")

	submitted := f.join(t, target, query, "", "-async")
	m := regexp.MustCompile(`(?m)^submitted job ([0-9a-f]+,[0-9a-f]+) `).FindStringSubmatch(submitted)
	if m == nil {
		t.Fatalf("no two-part job ID in:\n%s", submitted)
	}
	mustContain(t, submitted, "collect with: sjclient job -addr "+target[1]+" -id "+m[1])
	var out bytes.Buffer
	args := append([]string{"-keys", f.keys, "-id", m[1], "-maxrows", "100"}, target...)
	if err := cmdJob(args, &out); err != nil {
		t.Fatal(err)
	}
	mustContain(t, out.String(), "75 rows (")
	if got, want := sortedRows(out.String()), sortedRows(sync); !reflect.DeepEqual(got, want) {
		t.Fatalf("job -id printed rows\n%s\nthe sync join printed\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
