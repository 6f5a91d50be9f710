package sql

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func cacheCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat, err := NewCatalog(
		TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0}, Indexed: true, RowCount: 30},
		TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0}, Indexed: true, RowCount: 400},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

const cacheQuery = `SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team WHERE Teams.Name = 'Web Application'`

// TestPlanCacheHit pins the memoization contract: an identical second
// Compile returns an equivalent plan flagged Cached, without re-running
// the planner.
func TestPlanCacheHit(t *testing.T) {
	cat := cacheCatalog(t)
	reg := metrics.NewRegistry()
	cat.Instrument(reg)

	cold, err := cat.Compile(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first compile reported a cache hit")
	}
	warm, err := cat.Compile(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second compile missed the plan cache")
	}
	// Everything but the Cached flag must match the fresh compile.
	cmp := *warm
	cmp.Cached = false
	if !reflect.DeepEqual(&cmp, cold) {
		t.Fatalf("cached plan diverges from fresh compile:\n%s\nvs\n%s", warm.Describe(), cold.Describe())
	}
	hits := reg.Get("sj_sql_plan_cache_hits_total").(*metrics.Counter)
	misses := reg.Get("sj_sql_plan_cache_misses_total").(*metrics.Counter)
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("plan cache counters: hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}
	// The planner's own counters must count the one real compile only.
	if plans := reg.Get("sj_sql_plans_total").(*metrics.Counter); plans.Value() != 1 {
		t.Fatalf("sj_sql_plans_total = %d after one miss and one hit", plans.Value())
	}
}

// TestPlanCacheNormalization checks the canonical key: case,
// whitespace and an EXPLAIN prefix must all land in the same slot, with
// the Explain flag restored per statement.
func TestPlanCacheNormalization(t *testing.T) {
	cat := cacheCatalog(t)
	if _, err := cat.Compile(cacheQuery); err != nil {
		t.Fatal(err)
	}
	variants := []string{
		`select * from teams join employees on teams.key = employees.team where teams.name = 'Web Application'`,
		"SELECT  *  FROM Teams  JOIN Employees ON Teams.Key = Employees.Team\nWHERE Teams.Name = 'Web Application'",
		`EXPLAIN ` + cacheQuery,
	}
	for _, v := range variants {
		p, err := cat.Compile(v)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Cached {
			t.Fatalf("variant missed the cache: %q", v)
		}
	}
	explained, err := cat.Compile(`EXPLAIN ` + cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !explained.Explain {
		t.Fatal("cache hit dropped the EXPLAIN flag")
	}
	plain, err := cat.Compile(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explain {
		t.Fatal("cache hit leaked the EXPLAIN flag onto a bare statement")
	}
	// Predicate values stay case-sensitive: a different literal is a
	// different plan.
	other, err := cat.Compile(strings.Replace(cacheQuery, "Web Application", "web application", 1))
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("differing predicate value hit the cache")
	}
}

// TestPlanCacheSelectSegment pins that the SELECT list is part of the
// canonical key: a key-only projection and SELECT * are different
// plans, while case and ordering of the same list coalesce.
func TestPlanCacheSelectSegment(t *testing.T) {
	cat := cacheCatalog(t)
	if _, err := cat.Compile(cacheQuery); err != nil {
		t.Fatal(err)
	}
	keyOnly := strings.Replace(cacheQuery, "SELECT *", "SELECT Teams.Key, Employees.Team", 1)
	p, err := cat.Compile(keyOnly)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cached {
		t.Fatal("key-only projection hit the SELECT * cache slot")
	}
	if !p.Steps[0].Left.SkipPayload || !p.Steps[0].Right.SkipPayload {
		t.Fatalf("key-only projection kept payloads: %v/%v", p.Steps[0].Left.SkipPayload, p.Steps[0].Right.SkipPayload)
	}
	// Same list, different case: one slot.
	if p, err = cat.Compile(strings.Replace(cacheQuery, "SELECT *", "select TEAMS.key, employees.TEAM", 1)); err != nil {
		t.Fatal(err)
	}
	if !p.Cached {
		t.Fatal("case variant of the SELECT list missed the cache")
	}
	// The original SELECT * slot is still warm and still ships payloads.
	if p, err = cat.Compile(cacheQuery); err != nil {
		t.Fatal(err)
	}
	if !p.Cached || p.Steps[0].Left.SkipPayload || p.Steps[0].Right.SkipPayload {
		t.Fatalf("SELECT * slot corrupted: cached=%v skip=%v/%v", p.Cached, p.Steps[0].Left.SkipPayload, p.Steps[0].Right.SkipPayload)
	}
}

// TestPlanCacheInvalidation checks that every planning input clears the
// cache: statistics, index flags, and the semi-join and NDV knobs.
func TestPlanCacheInvalidation(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Catalog)
	}{
		{"SetStats", func(c *Catalog) {
			if err := c.SetStats("Teams", 1000, true); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetIndexed", func(c *Catalog) {
			// The index bit alone, as SyncCatalog sets it.
			if err := c.SetStats("Teams", 30, false); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetNDV", func(c *Catalog) {
			if err := c.SetNDV("Teams", 9); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetSemiJoin", func(c *Catalog) { c.SetSemiJoin(false) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cat := cacheCatalog(t)
			if _, err := cat.Compile(cacheQuery); err != nil {
				t.Fatal(err)
			}
			m.mut(cat)
			p, err := cat.Compile(cacheQuery)
			if err != nil {
				t.Fatal(err)
			}
			if p.Cached {
				t.Fatalf("%s did not invalidate the plan cache", m.name)
			}
		})
	}
}

// TestPlanCacheDecryptStats checks EXPLAIN's plan-cache line: a miss on
// the first compile, a hit on the second.
func TestPlanCacheDecryptStats(t *testing.T) {
	cat := cacheCatalog(t)
	p, err := cat.Compile(`EXPLAIN ` + cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Describe()
	if !strings.Contains(out, "plan cache: miss") {
		t.Fatalf("EXPLAIN lacks the plan cache line:\n%s", out)
	}
	warm, err := cat.Compile(`EXPLAIN ` + cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.Describe(), "plan cache: hit") {
		t.Fatalf("EXPLAIN does not report the plan cache hit:\n%s", warm.Describe())
	}
}

// TestPlanCacheEviction pins the LRU bound: compiling more shapes than
// maxCachedPlans evicts the oldest, which then re-compiles as a miss.
func TestPlanCacheEviction(t *testing.T) {
	cat := cacheCatalog(t)
	mk := func(i int) string {
		return cacheQuery + ` AND Employees.Role = '` + strings.Repeat("r", i%7+1) + `-` + string(rune('a'+i%26)) + strings.Repeat("x", i/26) + `'`
	}
	if _, err := cat.Compile(cacheQuery); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxCachedPlans; i++ {
		if _, err := cat.Compile(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := cat.Compile(cacheQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cached {
		t.Fatal("oldest shape survived past the cache bound")
	}
	// The most recent shape must still be cached.
	p, err = cat.Compile(mk(maxCachedPlans - 1))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cached {
		t.Fatal("most recent shape was evicted")
	}
}
