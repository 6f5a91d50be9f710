package engine

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/leakage"
	"repro/internal/securejoin"
)

func exampleTables() (teams, employees []PlainRow) {
	teams = []PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application")}, Payload: []byte("team-1")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database")}, Payload: []byte("team-2")},
	}
	employees = []PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Programmer")}, Payload: []byte("hans")},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}, Payload: []byte("kaily")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer")}, Payload: []byte("john")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Tester")}, Payload: []byte("sally")},
	}
	return
}

// register installs tabs on s, failing the test on an error.
func register(t testing.TB, s *Server, tabs ...*EncryptedTable) {
	t.Helper()
	for _, tab := range tabs {
		if err := s.RegisterTable(tab); err != nil {
			t.Fatal(err)
		}
	}
}

func setup(t *testing.T) (*Client, *Server) {
	t.Helper()
	client, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	teams, employees := exampleTables()
	encT, err := client.EncryptTable("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	encE, err := client.EncryptTable("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	register(t, server, encT, encE)
	return client, server
}

func TestEndToEndJoin(t *testing.T) {
	client, server := setup(t)
	q, err := client.NewQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, trace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("expected 1 result, got %d", len(rows))
	}
	pa, err := client.OpenPayload(rows[0].PayloadA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := client.OpenPayload(rows[0].PayloadB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, []byte("team-1")) || !bytes.Equal(pb, []byte("kaily")) {
		t.Fatalf("payloads = %q, %q", pa, pb)
	}
	if trace.Pairs().Len() != 1 {
		t.Fatalf("query trace has %d pairs, want 1", trace.Pairs().Len())
	}
}

// TestSeriesLeakageIsClosureOnly replays the two queries of the paper's
// timeline and verifies that what the server holds after the series equals
// exactly the transitive closure of the per-query traces (Corollary
// 5.2.2) — 2 pairs, not Hahn's 6 — and what the leakage package's
// Secure Join simulator predicts for the same series.
func TestSeriesLeakageIsClosureOnly(t *testing.T) {
	client, server := setup(t)

	q1, err := client.NewQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, trace1, err := join(server, "Teams", "Employees", JoinSpec{Query: q1})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := client.NewQuery(
		securejoin.Selection{0: [][]byte{[]byte("Database")}},
		securejoin.Selection{0: [][]byte{[]byte("Programmer")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, trace2, err := join(server, "Teams", "Employees", JoinSpec{Query: q2})
	if err != nil {
		t.Fatal(err)
	}

	queries, closure := server.ObservedLeakage()
	if queries != 2 {
		t.Fatalf("%d traces recorded", queries)
	}
	sigmas := []leakage.PairSet{trace1.Pairs(), trace2.Pairs()}
	if closure.Len() != 2 {
		t.Fatalf("closure has %d pairs, want 2", closure.Len())
	}
	if leakage.IsSuperAdditive(closure, sigmas) {
		t.Fatal("engine leaked super-additively")
	}
	want := leakage.NewPairSet(
		leakage.Pair{A: leakage.RowRef{Table: "Teams", Row: 0}, B: leakage.RowRef{Table: "Employees", Row: 1}},
		leakage.Pair{A: leakage.RowRef{Table: "Teams", Row: 1}, B: leakage.RowRef{Table: "Employees", Row: 2}},
	)
	if !closure.Equal(want) {
		t.Fatalf("closure = %v", closure.Sorted())
	}

	// The Secure Join leakage simulator, run on a plaintext view of the
	// same tables and selections, must predict exactly this closure.
	view := func(name string, rows []PlainRow) *leakage.Table {
		tbl := &leakage.Table{Name: name}
		for _, r := range rows {
			tbl.Joins = append(tbl.Joins, string(r.JoinValue))
			tbl.Attrs = append(tbl.Attrs, []string{string(r.Attrs[0])})
		}
		return tbl
	}
	teams, employees := exampleTables()
	sim := leakage.SecureJoinLeakage(view("Teams", teams), view("Employees", employees), []leakage.Query{
		{SelA: map[int][]string{0: {"Web Application"}}, SelB: map[int][]string{0: {"Tester"}}},
		{SelA: map[int][]string{0: {"Database"}}, SelB: map[int][]string{0: {"Programmer"}}},
	})
	if predicted := sim[len(sim)-1]; !closure.Equal(predicted) {
		t.Fatalf("engine closure %v, simulator predicts %v", closure.Sorted(), predicted.Sorted())
	}
}

func TestTableStats(t *testing.T) {
	client, server := setup(t)
	teams, _ := exampleTables()
	// Replace Teams with an indexed version so both states appear.
	encT, err := client.EncryptTableIndexed("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	register(t, server, encT)

	stats := server.TableStats()
	want := []TableStat{
		{Name: "Employees", Rows: 4, Indexed: false, NDV: 2},
		{Name: "Teams", Rows: 2, Indexed: true, NDV: 2},
	}
	if len(stats) != len(want) {
		t.Fatalf("TableStats = %+v", stats)
	}
	for i := range want {
		if stats[i] != want[i] {
			t.Fatalf("TableStats[%d] = %+v, want %+v", i, stats[i], want[i])
		}
	}
}

func TestUnknownTable(t *testing.T) {
	client, server := setup(t)
	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := join(server, "Teams", "Nope", JoinSpec{Query: q}); err == nil {
		t.Fatal("join against a missing table should fail")
	}
	if _, _, err := join(server, "Nope", "Teams", JoinSpec{Query: q}); err == nil {
		t.Fatal("join against a missing table should fail")
	}
}

func TestPayloadConfidentialityAndIntegrity(t *testing.T) {
	client, server := setup(t)
	table, err := server.Table("Teams")
	if err != nil {
		t.Fatal(err)
	}
	sealed := table.Rows[0].Payload
	if bytes.Contains(sealed, []byte("team-1")) {
		t.Fatal("payload plaintext visible in stored ciphertext")
	}
	// Tampering must be detected.
	tampered := append([]byte{}, sealed...)
	tampered[len(tampered)-1] ^= 1
	if _, err := client.OpenPayload(tampered); err == nil {
		t.Fatal("tampered payload accepted")
	}
	// A second client cannot open the first client's payloads.
	other, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.OpenPayload(sealed); err == nil {
		t.Fatal("foreign client opened the payload")
	}
	if _, err := client.OpenPayload([]byte{1, 2}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestRepeatedQueryUnlinkable: executing the same logical query twice
// adds no new pairs to the closure (the results are the same rows), and
// the servers' D values across the two executions differ.
func TestRepeatedQueryUnlinkable(t *testing.T) {
	client, server := setup(t)
	sel := securejoin.Selection{0: [][]byte{[]byte("Web Application")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}
	for i := 0; i < 2; i++ {
		q, err := client.NewQuery(sel, selB)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	_, closure := server.ObservedLeakage()
	if closure.Len() != 1 {
		t.Fatalf("re-running a query should not grow the closure: %d pairs", closure.Len())
	}
}

// TestSameJoinSpecTwice re-runs one JoinSpec, the same tokens included:
// SJ.Dec is deterministic in (token, ciphertext), so the second run
// returns the identical rows and sigma(q), and since it reveals only
// pairs the first one did, the ledger's closure does not grow.
func TestSameJoinSpecTwice(t *testing.T) {
	client, server := setup(t)
	q, err := client.NewQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := JoinSpec{Query: q}
	first, firstTrace, err := join(server, "Teams", "Employees", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("first run returned %d rows, want 1", len(first))
	}
	_, before := server.ObservedLeakage()
	second, secondTrace, err := join(server, "Teams", "Employees", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(openRows(t, client, first), openRows(t, client, second)) {
		t.Fatalf("rows changed between runs: %v vs %v", first, second)
	}
	if !firstTrace.Pairs().Equal(secondTrace.Pairs()) {
		t.Fatalf("sigma changed between runs: %v vs %v", firstTrace.Pairs().Sorted(), secondTrace.Pairs().Sorted())
	}
	if _, after := server.ObservedLeakage(); !after.Equal(before) {
		t.Fatalf("closure grew from %d to %d pairs on a repeated spec", before.Len(), after.Len())
	}
}

// TestReRegisteredTableSameJoin re-encrypts Employees from the same
// plaintext — fresh ciphertext randomness — and registers it over the
// old version between two runs of one query: the join reads the new
// table and returns the same rows and sigma(q).
func TestReRegisteredTableSameJoin(t *testing.T) {
	client, server := setup(t)
	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	before, beforeTrace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 4 {
		t.Fatalf("first run returned %d rows, want 4", len(before))
	}
	_, employees := exampleTables()
	encE, err := client.EncryptTable("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.RegisterTable(encE); err != nil {
		t.Fatal(err)
	}
	after, afterTrace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(openRows(t, client, before), openRows(t, client, after)) {
		t.Fatalf("rows changed across re-register: %v vs %v", before, after)
	}
	if !beforeTrace.Pairs().Equal(afterTrace.Pairs()) {
		t.Fatalf("sigma changed across re-register: %v vs %v", beforeTrace.Pairs().Sorted(), afterTrace.Pairs().Sorted())
	}
}

// openRows renders a join result as sorted "rowA|rowB|payloadA|payloadB"
// lines with the payloads opened, so results whose sealed payloads
// differ only in their encryption randomness compare equal.
func openRows(t *testing.T, client *Client, rows []JoinedRow) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		pa, err := client.OpenPayload(r.PayloadA)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := client.OpenPayload(r.PayloadB)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprintf("%d|%d|%s|%s", r.RowA, r.RowB, pa, pb)
	}
	slices.Sort(out)
	return out
}

// join runs one join to completion: OpenJoin followed by Drain.
func join(s *Server, tableA, tableB string, spec JoinSpec) ([]JoinedRow, *QueryTrace, error) {
	st, err := s.OpenJoin(tableA, tableB, spec)
	if err != nil {
		return nil, nil, err
	}
	return st.Drain()
}
