package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestConnectModePicksPrefilteredPlan is the acceptance test for the
// statistics-aware planner in wire mode: sjsql -connect uploads the
// indexed TPC-H tables to a live sjserver, syncs the catalog (row
// counts + index state) over the Describe request, and the planner must
// pick the prefiltered plan automatically — no -prefilter flag anywhere
// — because the estimated candidate set beats the synced row count.
func TestConnectModePicksPrefilteredPlan(t *testing.T) {
	srv := server.New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	var out bytes.Buffer
	// Small scale: 7 customers, 75 orders — big enough that a single
	// predicate is estimated selective (est. 1 of 7 rows), cheap enough
	// to encrypt in a unit test.
	a, cleanup, err := setup(&out, 0.00005, 1, 10, addr, "", true, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)

	const query = `SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
		WHERE Customers.selectivity = 'none'`

	if err := a.exec("EXPLAIN " + query); err != nil {
		t.Fatal(err)
	}
	explain := out.String()
	if !strings.Contains(explain, "plan: prefiltered") {
		t.Fatalf("planner did not pick the prefiltered plan:\n%s", explain)
	}
	if !strings.Contains(explain, "side B: Customers [indexed, 7 rows]") ||
		!strings.Contains(explain, "-> prefiltered, 1 SSE token(s), est. 1 candidate row(s)") {
		t.Fatalf("EXPLAIN missing the prefiltered side:\n%s", explain)
	}
	if !strings.Contains(explain, "side A: Orders [indexed, 75 rows]") ||
		!strings.Contains(explain, "-> full scan (no WHERE predicates)") {
		t.Fatalf("EXPLAIN missing the full-scan side:\n%s", explain)
	}
	if !strings.Contains(explain, "workers: 2") {
		t.Fatalf("EXPLAIN missing the workers hint:\n%s", explain)
	}

	out.Reset()
	if err := a.exec(query); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "via prefiltered plan") {
		t.Fatalf("execution did not report the prefiltered plan:\n%s", got)
	}
	// With 7 customers every selectivity class floors to 0 rows, so all
	// 7 are 'none' and every one of the 75 orders survives the join.
	if !strings.Contains(got, "75 rows in") {
		t.Fatalf("unexpected result set:\n%s", got)
	}
}

// TestConnectModeThreeWayJoin drives a 3-table query end-to-end over
// the wire: the planner must order the chain from the synced row
// counts (Customers and Profiles before Orders), EXPLAIN must render
// the operator tree, and execution must stitch the pairwise joins into
// full 3-column rows.
func TestConnectModeThreeWayJoin(t *testing.T) {
	srv := server.New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	var out bytes.Buffer
	a, cleanup, err := setup(&out, 0.00005, 1, 100, addr, "", true, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)

	const query = `SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
		JOIN Profiles ON Profiles.custkey = Customers.custkey
		WHERE Customers.selectivity = 'none'`

	if err := a.exec("EXPLAIN " + query); err != nil {
		t.Fatal(err)
	}
	explain := out.String()
	for _, want := range []string{
		"plan: 3-table join, 2 pairwise encrypted step(s), left-deep",
		"join order: Customers, Profiles, Orders — row statistics (smallest estimated sides first)",
		"step 1: Customers JOIN Profiles [prefiltered]",
		"step 2: Customers JOIN Orders [prefiltered] (stitch on Customers rows, client-side)",
	} {
		if !strings.Contains(explain, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, explain)
		}
	}

	out.Reset()
	if err := a.exec(query); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Every order stitches to exactly one customer and one profile.
	if !strings.Contains(got, "75 rows in") || !strings.Contains(got, "2 join step(s)") {
		t.Fatalf("unexpected 3-way result:\n%s", got)
	}
	// Result columns follow the FROM clause: order | customer | profile.
	line := firstResultLine(got)
	if !strings.Contains(line, "order ") || !strings.Contains(line, "profile ") {
		t.Fatalf("stitched row missing a column:\n%s", got)
	}
	if strings.Index(line, "order ") > strings.Index(line, "profile ") {
		t.Fatalf("columns not in FROM order:\n%s", got)
	}
}

// TestServersModeShardedJoin drives sjsql's -servers mode: the TPC-H
// tables are hash-sharded over two live sjservers, a 3-way join runs
// scatter-gather, and the stitched result must match what the
// single-server tests above observe (75 rows, 2 steps).
func TestServersModeShardedJoin(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := server.New(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr)
	}

	var out bytes.Buffer
	a, cleanup, err := setup(&out, 0.00005, 1, 100, "", strings.Join(addrs, ","), true, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)

	const query = `SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
		JOIN Profiles ON Profiles.custkey = Customers.custkey
		WHERE Customers.selectivity = 'none'`
	if err := a.exec(query); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "75 rows in") || !strings.Contains(got, "2 join step(s)") {
		t.Fatalf("unexpected sharded 3-way result:\n%s", got)
	}
	line := firstResultLine(got)
	if !strings.Contains(line, "order ") || !strings.Contains(line, "profile ") {
		t.Fatalf("stitched sharded row missing a column:\n%s", got)
	}
}

func firstResultLine(out string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "  ") {
			return l
		}
	}
	return ""
}

// TestConnectModeFallsBackUnindexed: the same wire setup uploaded
// without SSE indexes must plan — and report — a full scan.
func TestConnectModeFallsBackUnindexed(t *testing.T) {
	srv := server.New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	var out bytes.Buffer
	a, cleanup, err := setup(&out, 0.00001, 1, 10, addr, "", false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)

	const query = `SELECT * FROM Orders JOIN Customers ON Orders.custkey = Customers.custkey
		WHERE Customers.selectivity = 'none'`
	if err := a.exec("EXPLAIN " + query); err != nil {
		t.Fatal(err)
	}
	explain := out.String()
	if !strings.Contains(explain, "plan: full scan") ||
		!strings.Contains(explain, "-> full scan (no SSE index)") {
		t.Fatalf("unindexed upload did not fall back to a full-scan plan:\n%s", explain)
	}

	out.Reset()
	if err := a.exec(query); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "via full scan plan") || !strings.Contains(got, "15 rows in") {
		t.Fatalf("full-scan execution:\n%s", got)
	}
}
