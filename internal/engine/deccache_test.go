package engine

import (
	"sort"
	"testing"

	"repro/internal/securejoin"
)

// joinKey flattens a join result into comparable (rowA, rowB) pairs.
func joinKeys(rows []JoinedRow) [][2]int {
	out := make([][2]int, len(rows))
	for i, r := range rows {
		out[i] = [2]int{r.RowA, r.RowB}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func sameJoin(t *testing.T, a, b []JoinedRow) {
	t.Helper()
	ka, kb := joinKeys(a), joinKeys(b)
	if len(ka) != len(kb) {
		t.Fatalf("join cardinality changed: %d vs %d rows", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("join pair %d changed: %v vs %v", i, ka[i], kb[i])
		}
	}
}

// TestDecryptCacheWarmHit re-executes one query token against an
// unchanged server: the second run must be served entirely from the
// decrypt cache and still produce the identical join result and
// sigma(q) trace.
func TestDecryptCacheWarmHit(t *testing.T) {
	client, server := setup(t)
	server.SetDecryptCache(64 << 20)

	q, err := client.NewQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldTrace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	st := server.DecryptCacheStats()
	if !st.Enabled {
		t.Fatal("cache attached but stats report disabled")
	}
	if st.Hits != 0 || st.Misses != 6 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/6", st.Hits, st.Misses)
	}

	warm, warmTrace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	sameJoin(t, cold, warm)
	if coldTrace.Pairs().Len() != warmTrace.Pairs().Len() {
		t.Fatalf("sigma changed under caching: %d vs %d pairs",
			coldTrace.Pairs().Len(), warmTrace.Pairs().Len())
	}
	st = server.DecryptCacheStats()
	if st.Hits != 6 || st.Misses != 6 {
		t.Fatalf("warm run: hits=%d misses=%d, want 6/6", st.Hits, st.Misses)
	}
	if st.Entries != 2 || st.Bytes <= 0 {
		t.Fatalf("stats report %d entries / %d bytes after two lookups", st.Entries, st.Bytes)
	}
}

// TestDecryptCacheFreshTokensMiss checks the key's token digest: a new
// query over the same tables (fresh k/delta randomness in the tokens)
// must not hit entries cached under a previous token.
func TestDecryptCacheFreshTokensMiss(t *testing.T) {
	client, server := setup(t)
	server.SetDecryptCache(64 << 20)

	sel := securejoin.Selection{}
	for i := 0; i < 2; i++ {
		q, err := client.NewQuery(sel, sel)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	st := server.DecryptCacheStats()
	if st.Hits != 0 || st.Misses != 12 {
		t.Fatalf("fresh tokens: hits=%d misses=%d, want 0/12", st.Hits, st.Misses)
	}
}

// TestDecryptCacheInvalidationOnRegister overwrites one table between
// two executions of the same token. The re-registered version must miss
// the cache (its install version changed) and the join must come out
// identical — the rows were re-encrypted from the same plaintext.
func TestDecryptCacheInvalidationOnRegister(t *testing.T) {
	client, server := setup(t)
	server.SetDecryptCache(64 << 20)

	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldTrace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}

	// Re-encrypt Employees from the same plaintext rows: fresh
	// ciphertext randomness, same join semantics, new install version.
	_, employees := exampleTables()
	encE, err := client.EncryptTable("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.RegisterTable(encE); err != nil {
		t.Fatal(err)
	}

	warm, warmTrace, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	sameJoin(t, cold, warm)
	if coldTrace.Pairs().Len() != warmTrace.Pairs().Len() {
		t.Fatalf("sigma changed across re-register: %d vs %d pairs",
			coldTrace.Pairs().Len(), warmTrace.Pairs().Len())
	}
	st := server.DecryptCacheStats()
	// Teams (2 rows) hits on the second run; Employees' 4 rows must be
	// re-decrypted under the new version: 6 cold misses + 4 fresh ones.
	if st.Hits != 2 || st.Misses != 10 {
		t.Fatalf("post-register: hits=%d misses=%d, want 2/10", st.Hits, st.Misses)
	}
}

// TestDecryptCachePrefilterSparseFill runs a prefiltered query twice:
// the entry is filled sparsely with only the candidate rows, and the
// re-execution serves exactly those rows from cache.
func TestDecryptCachePrefilterSparseFill(t *testing.T) {
	client, err := NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer()
	server.SetDecryptCache(64 << 20)
	teams, employees := exampleTables()
	encT, err := client.EncryptTableIndexed("Teams", teams)
	if err != nil {
		t.Fatal(err)
	}
	encE, err := client.EncryptTableIndexed("Employees", employees)
	if err != nil {
		t.Fatal(err)
	}
	server.Upload(encT)
	server.Upload(encE)

	pq, err := client.NewPrefilterQuery(
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := join(server, "Teams", "Employees", JoinSpec{Prefilter: pq})
	if err != nil {
		t.Fatal(err)
	}
	sameJoin(t, cold, warm)
	st := server.DecryptCacheStats()
	// 1 Teams candidate + 2 Employees candidates per run.
	if st.Misses != 3 || st.Hits != 3 {
		t.Fatalf("prefiltered runs: hits=%d misses=%d, want 3/3", st.Hits, st.Misses)
	}
}

// TestDecryptCacheOversizedDropped bounds the cache well under any
// table entry: every fill's entry alone outgrows the budget, so each is
// dropped as oversized (counted, not cached) rather than thrashing the
// LRU, the budget holds, and results stay correct.
func TestDecryptCacheOversizedDropped(t *testing.T) {
	client, server := setup(t)
	const budget = 512 // smaller than any filled table entry here
	server.SetDecryptCache(budget)

	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	sameJoin(t, cold, warm)
	st := server.DecryptCacheStats()
	if st.Oversized != 4 { // 2 tables x 2 runs, never cached
		t.Fatalf("oversized drops = %d, want 4", st.Oversized)
	}
	if st.Evictions != 0 {
		t.Fatalf("oversized drops leaked into the eviction count: %d", st.Evictions)
	}
	if st.Entries != 0 {
		t.Fatalf("%d oversized entries were kept", st.Entries)
	}
	if st.Bytes > budget {
		t.Fatalf("cache holds %d bytes over a %d byte budget", st.Bytes, budget)
	}
}

// TestDecryptCacheOversizedKeepsSmallTablesWarm is the regression test
// for the thrash bug: filling an entry larger than the whole budget
// used to evict everything (its own rows included), so a cache budgeted
// under its biggest table never produced a warm hit for anyone. Now the
// oversized entry alone is dropped and the small table's entry stays
// resident across runs.
func TestDecryptCacheOversizedKeepsSmallTablesWarm(t *testing.T) {
	client, server := setup(t)
	// Teams (2 rows, ~944 bytes filled) fits; Employees (4 rows, ~1760
	// bytes) alone exceeds the budget.
	const budget = 1200
	server.SetDecryptCache(budget)

	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	sameJoin(t, cold, warm)
	st := server.DecryptCacheStats()
	// Warm run: Teams' 2 rows hit; Employees' 4 re-decrypt both times.
	if st.Hits != 2 || st.Misses != 10 {
		t.Fatalf("hits=%d misses=%d, want 2/10 (small table warm, big table dropped)", st.Hits, st.Misses)
	}
	if st.Oversized != 2 {
		t.Fatalf("oversized drops = %d, want 2 (Employees, both runs)", st.Oversized)
	}
	if st.Entries != 1 {
		t.Fatalf("cache holds %d entries, want 1 (Teams)", st.Entries)
	}
	if st.Bytes > budget {
		t.Fatalf("cache holds %d bytes over a %d byte budget", st.Bytes, budget)
	}
}

// TestDecryptCacheSwapDuringJoins flips the cache configuration while
// joins are executing: SetDecryptCache swaps an atomic pointer, so
// concurrent decrypt phases finish against whichever cache they loaded.
// Run under -race this pins the data-race-freedom of runtime swaps; the
// join results must stay correct throughout.
func TestDecryptCacheSwapDuringJoins(t *testing.T) {
	client, server := setup(t)

	q, err := client.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		budgets := []int64{0, 512, 64 << 20, 0, 1 << 20}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				server.SetDecryptCache(budgets[i%len(budgets)])
				server.DecryptCacheStats()
			}
		}
	}()
	for i := 0; i < 4; i++ {
		got, _, err := join(server, "Teams", "Employees", JoinSpec{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		sameJoin(t, want, got)
	}
	close(stop)
	<-flipped
}

// TestDecryptCacheDisabledStats checks the zero-value reporting and
// that a zero budget detaches the cache.
func TestDecryptCacheDisabledStats(t *testing.T) {
	server := NewServer()
	if st := server.DecryptCacheStats(); st.Enabled {
		t.Fatal("fresh server reports an attached decrypt cache")
	}
	server.SetDecryptCache(1 << 20)
	if st := server.DecryptCacheStats(); !st.Enabled {
		t.Fatal("attached cache reports disabled")
	}
	server.SetDecryptCache(0)
	if st := server.DecryptCacheStats(); st.Enabled {
		t.Fatal("zero budget did not detach the cache")
	}
}
