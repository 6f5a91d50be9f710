package server

import (
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/securejoin"
)

// liveHeap is the smallest of three post-GC heap readings.
func liveHeap() uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if i == 0 || ms.HeapAlloc < best {
			best = ms.HeapAlloc
		}
	}
	return best
}

// ledgerSeriesQueries is the length of TestLedgerFlatOverSeries's
// series; race_test.go shortens it under the race detector.
var ledgerSeriesQueries = 500

// TestLedgerFlatOverSeries runs a 500-query series — a cycle of four
// selective joins — over the wire on a durable server. The first cycle
// teaches the server two classes of three rows; every later query
// reveals pairs it already holds, so from then on the health report,
// the per-table gauges, the manifest and the server's heap must not
// move: what a series costs is bounded by the rows it reveals, not by
// its length.
func TestLedgerFlatOverSeries(t *testing.T) {
	srv, addr := startDurableServer(t, t.TempDir(), func(s *Server) {
		// One worker runs joins — and the ledger append that follows each
		// reply — strictly one after another, so once a query has been
		// answered every earlier query's append is on disk.
		s.SetJobWorkers(1)
	})
	c, err := client.Dial(addr, securejoin.Params{M: 1, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	uploadIndexedTestTables(t, c)

	var cycle [][2]securejoin.Selection
	for _, team := range []string{"Web Application", "Database"} {
		for _, role := range []string{"Tester", "Programmer"} {
			cycle = append(cycle, [2]securejoin.Selection{
				{0: [][]byte{[]byte(team)}}, {0: [][]byte{[]byte(role)}},
			})
		}
	}
	query := func(i int) {
		t.Helper()
		sel := cycle[i%len(cycle)]
		rows, revealed, err := c.JoinWith("Teams", "Employees", sel[0], sel[1], client.JoinOpts{Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || revealed != 1 {
			t.Fatalf("query %d: %d rows, %d revealed pairs, want 1 and 1", i, len(rows), revealed)
		}
	}
	gauge := func(table string) int64 {
		return srv.Registry().Get("sj_revealed_pairs").(*metrics.GaugeVec).With(table).Value()
	}
	// Four sigmas of one pair each close to {team, its two employees}
	// twice over: 6 pairs, 4 of them touching Teams, all 6 Employees.
	check := func(when string) {
		t.Helper()
		h, err := c.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.RevealedPairs != 6 || gauge("Teams") != 4 || gauge("Employees") != 6 {
			t.Fatalf("%s: health reports %d revealed pairs, gauges Teams=%d Employees=%d; want 6, 4, 6",
				when, h.RevealedPairs, gauge("Teams"), gauge("Employees"))
		}
	}

	queries := ledgerSeriesQueries
	for i := 0; i <= len(cycle); i++ {
		query(i) // the first cycle, and one query more to flush its appends
	}
	check("after the first cycle")
	records, heap := manifestRecords(t, srv), liveHeap()
	if want := 2 + len(cycle); records != want {
		t.Fatalf("manifest holds %d records after the first cycle, want 2 uploads + %d ledger deltas", records, len(cycle))
	}
	for i := len(cycle) + 1; i < queries; i++ {
		query(i)
	}
	check("after the series")
	if n, _ := srv.Engine().ObservedLeakage(); n != queries {
		t.Fatalf("ledger recorded %d traces, want %d", n, queries)
	}
	// Readings of a flat heap wander by 10-30 KiB here; when every query
	// retained its pair map this series grew it by 290 KiB.
	if grew := int64(liveHeap()) - int64(heap); grew > 128<<10 {
		t.Fatalf("heap grew by %d bytes over %d repeated queries", grew, queries-len(cycle)-1)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := manifestRecords(t, srv); got != records {
		t.Fatalf("manifest grew from %d to %d records over %d repeated queries", records, got, queries-len(cycle)-1)
	}
}
