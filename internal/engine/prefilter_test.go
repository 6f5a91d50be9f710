package engine

import (
	"io"
	"slices"
	"testing"

	"repro/internal/leakage"
	"repro/internal/securejoin"
)

func setupIndexed(t *testing.T) (*Client, *Server) {
	t.Helper()
	client, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	teams, employees := exampleTables()
	encT, err := client.EncryptTableIndexed("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	encE, err := client.EncryptTableIndexed("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	if encT.Index == nil || encE.Index == nil {
		t.Fatal("indexed upload did not attach an index")
	}
	register(t, server, encT, encE)
	return client, server
}

// TestPrefilteredJoinMatchesFullJoin: the pre-filtered execution path
// must return exactly the same result rows as the full scan.
func TestPrefilteredJoinMatchesFullJoin(t *testing.T) {
	client, server := setupIndexed(t)
	selA := securejoin.Selection{0: [][]byte{[]byte("Web Application")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}

	pq, err := client.NewPrefilterQuery(selA, selB)
	if err != nil {
		t.Fatal(err)
	}
	fast, trace, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}

	q, err := client.NewQuery(selA, selB)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}

	if len(fast) != len(full) {
		t.Fatalf("prefiltered join returned %d rows, full join %d", len(fast), len(full))
	}
	for i := range fast {
		if fast[i].RowA != full[i].RowA || fast[i].RowB != full[i].RowB {
			t.Fatalf("row %d differs: %v vs %v", i, fast[i], full[i])
		}
	}
	if trace.Pairs().Len() != 1 {
		t.Fatalf("trace has %d pairs", trace.Pairs().Len())
	}
}

// TestPrefilteredJoinINClause: IN clauses union within an attribute.
func TestPrefilteredJoinINClause(t *testing.T) {
	client, server := setupIndexed(t)
	pq, err := client.NewPrefilterQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application"), []byte("Database")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected both testers, got %d rows", len(rows))
	}
}

// TestPrefilterOnUnindexedTableFallsBack: a table uploaded without an
// index is processed with a full scan and the query still succeeds.
func TestPrefilterOnUnindexedTableFallsBack(t *testing.T) {
	client, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	teams, employees := exampleTables()
	encT, err := client.EncryptTable("Teams", teams) // no index
	if err != nil {
		t.Fatal(err)
	}
	encE, err := client.EncryptTableIndexed("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	register(t, server, encT, encE)

	pq, err := client.NewPrefilterQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(rows))
	}
}

// TestPrefilterEmptySelection: with no predicates every row is a
// candidate and the pre-filtered path degenerates to the full join.
func TestPrefilterEmptySelection(t *testing.T) {
	client, server := setupIndexed(t)
	pq, err := client.NewPrefilterQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("unfiltered join should return 4 rows, got %d", len(rows))
	}
}

// TestPrefilterNoMatches: predicates selecting nothing yield an empty
// result without error.
func TestPrefilterNoMatches(t *testing.T) {
	client, server := setupIndexed(t)
	pq, err := client.NewPrefilterQuery(
		securejoin.Selection{0: [][]byte{[]byte("No Such Team")}},
		securejoin.Selection{},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, trace, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("expected no joined rows, got %d", len(rows))
	}
	// The Employees side is unrestricted, so its intra-table equality
	// pairs (two teams of two) are legitimately revealed even though
	// the cross join is empty — exactly the paper's leakage definition.
	if trace.Pairs().Len() != 2 {
		t.Fatalf("expected the 2 intra-Employees pairs, got %d", trace.Pairs().Len())
	}
}

// TestPrefilteredStreamMatchesOneShot drains the planned pipeline with
// a tiny batch size and checks it yields exactly the rows and trace of
// the one-shot wrapper — the two paths are the same code, but this
// pins the stream plumbing (candidate ordering, row-id mapping).
func TestPrefilteredStreamMatchesOneShot(t *testing.T) {
	client, server := setupIndexed(t)
	selA := securejoin.Selection{0: [][]byte{[]byte("Web Application"), []byte("Database")}}
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}

	pq, err := client.NewPrefilterQuery(selA, selB)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTrace, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}

	pq2, err := client.NewPrefilterQuery(selA, selB)
	if err != nil {
		t.Fatal(err)
	}
	st, err := server.OpenJoin("Teams", "Employees", JoinSpec{Prefilter: pq2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []JoinedRow
	for {
		rows, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 1 {
			t.Fatalf("batch of %d rows exceeds batch size 1", len(rows))
		}
		got = append(got, rows...)
	}
	if len(got) != len(want) {
		t.Fatalf("stream produced %d rows, one-shot %d", len(got), len(want))
	}
	for i := range got {
		if got[i].RowA != want[i].RowA || got[i].RowB != want[i].RowB {
			t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	if st.RevealedPairs() != wantTrace.Pairs().Len() {
		t.Fatalf("stream trace %d pairs, one-shot trace %d", st.RevealedPairs(), wantTrace.Pairs().Len())
	}
}

// TestPrefilteredStreamCloseRecordsPrefix: a prefiltered stream
// released before the first probe must still audit the intra-A pairs
// observed when the build side was decrypted.
func TestPrefilteredStreamCloseRecordsPrefix(t *testing.T) {
	client, server := setupIndexed(t)
	// Employees as the build side: its four rows pair up by join value
	// ((hans,kaily) on "1", (john,sally) on "2"), so decrypting side A
	// alone already leaks two intra-table pairs.
	pq, err := client.NewPrefilterQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := server.OpenJoin("Employees", "Teams", JoinSpec{Prefilter: pq, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // before any Next: only the build side has leaked
	if st.Trace() == nil {
		t.Fatal("closed stream has no trace")
	}
	// Employees rows (1,2) and (3,4) share join values: 2 intra-A pairs.
	if st.RevealedPairs() != 2 {
		t.Fatalf("prefix trace has %d pairs, want the 2 intra-A pairs", st.RevealedPairs())
	}
	if queries, closure := server.ObservedLeakage(); queries != 1 || !closure.Equal(st.Trace().Pairs()) || closure.Len() != 2 {
		t.Fatalf("ledger holds %d trace(s), closure %v; want the one 2-pair trace", queries, closure.Sorted())
	}
}

// TestJoinSpecWorkersMatchesSequential: the worker count is a pure
// performance knob — any value must produce identical rows and traces.
func TestJoinSpecWorkersMatchesSequential(t *testing.T) {
	client, server := setupIndexed(t)
	selB := securejoin.Selection{0: [][]byte{[]byte("Tester")}}
	var baseRows []JoinedRow
	var basePairs int
	for i, workers := range []int{1, 0, 4} {
		pq, err := client.NewPrefilterQuery(securejoin.Selection{}, selB)
		if err != nil {
			t.Fatal(err)
		}
		st, err := server.OpenJoin("Teams", "Employees", JoinSpec{Prefilter: pq, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := st.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			baseRows, basePairs = rows, st.RevealedPairs()
			continue
		}
		if len(rows) != len(baseRows) || st.RevealedPairs() != basePairs {
			t.Fatalf("workers=%d: %d rows/%d pairs, want %d/%d",
				workers, len(rows), st.RevealedPairs(), len(baseRows), basePairs)
		}
		for j := range rows {
			if rows[j].RowA != baseRows[j].RowA || rows[j].RowB != baseRows[j].RowB {
				t.Fatalf("workers=%d: row %d differs", workers, j)
			}
		}
	}
}

// TestJoinSpecWithoutTokens: a spec carrying neither Query nor
// Prefilter fails loudly instead of dereferencing nil.
func TestJoinSpecWithoutTokens(t *testing.T) {
	_, server := setupIndexed(t)
	if _, err := server.OpenJoin("Teams", "Employees", JoinSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestExplicitCandidatesCleaned: a peer's explicit candidate list goes
// through OpenJoin cleaned — out-of-range ids dropped, duplicates
// removed, order ignored, the caller's slice left alone — so a messy
// list gives the rows and revealed pairs of its clean form, on either
// side.
func TestExplicitCandidatesCleaned(t *testing.T) {
	client, err := NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	plain := make([]PlainRow, 10)
	for i := range plain {
		plain[i] = PlainRow{JoinValue: []byte{byte('0' + i%3)}, Attrs: [][]byte{[]byte("a")}, Payload: []byte{byte(i)}}
	}
	for _, name := range []string{"A", "B"} {
		tab, err := client.EncryptTable(name, plain)
		if err != nil {
			t.Fatal(err)
		}
		register(t, server, tab)
	}
	run := func(side string, cand []int) ([][2]int, leakage.PairSet) {
		t.Helper()
		q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
		if err != nil {
			t.Fatal(err)
		}
		spec := JoinSpec{Query: q}
		if side == "A" {
			spec.CandidatesA = cand
		} else {
			spec.CandidatesB = cand
		}
		rows, trace, err := join(server, "A", "B", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([][2]int, len(rows))
		for i, r := range rows {
			ids[i] = [2]int{r.RowA, r.RowB}
		}
		slices.SortFunc(ids, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
		return ids, trace.Pairs()
	}
	for _, side := range []string{"A", "B"} {
		messy := []int{7, -1, 3, 3, 1 << 20}
		gotRows, gotPairs := run(side, messy)
		wantRows, wantPairs := run(side, []int{3, 7})
		if !slices.Equal(messy, []int{7, -1, 3, 3, 1 << 20}) {
			t.Fatalf("side %s: the candidate list was modified to %v", side, messy)
		}
		// Rows 3 and 7 hold join value "0" and "1"; each matches the
		// other table's four or three rows of that value.
		if len(wantRows) != 7 {
			t.Fatalf("side %s: clean list gave %d rows %v, want 7", side, len(wantRows), wantRows)
		}
		if !slices.Equal(gotRows, wantRows) {
			t.Fatalf("side %s: messy list gave rows %v, clean list %v", side, gotRows, wantRows)
		}
		if !gotPairs.Equal(wantPairs) {
			t.Fatalf("side %s: messy list revealed %v, clean list %v", side, gotPairs.Sorted(), wantPairs.Sorted())
		}
	}
}
