package sql

import (
	"container/list"
	"fmt"
	"strings"
)

// Plan caching. Planning is pure: a compiled Plan depends only on the
// normalized query shape and on the catalog state the planner consults
// (schemas, row statistics, index flags). Compile
// therefore memoizes plans under a canonical rendering of the parsed
// statement, and every catalog mutation that could change a planning
// decision — SetStats, SetNDV, SetSemiJoin —
// clears the cache. Dashboards and EXPLAIN's repeated-query workloads
// re-plan the same handful of shapes between stat syncs; those compiles
// become a map lookup.
//
// A hit returns a shallow copy with Cached set: the slices and
// Selection maps are shared with the cached plan, which is safe because
// executors treat compiled plans as read-only.

// maxCachedPlans bounds the plan cache; least-recently-compiled shapes
// are evicted beyond it.
const maxCachedPlans = 256

type planEntry struct {
	key  string
	plan Plan
}

// canonicalKey renders the normalized shape of a parsed query: folded
// identifiers, source offsets dropped, the EXPLAIN prefix ignored (a
// hit restores the current statement's Explain flag). Two statements
// differing only in case, whitespace or EXPLAIN share one cache slot.
// Join conditions and predicates keep their source order — value order
// flows into the compiled Selections, so reordering here would make a
// hit diverge from a fresh compile.
func canonicalKey(q *JoinQuery) string {
	var b strings.Builder
	// SELECT * and an explicit list plan differently (key-only
	// projections), so the list is part of the shape; "select:*" keeps
	// pre-projection statements on their old slot.
	b.WriteString("select:")
	if q.Select == nil {
		b.WriteByte('*')
	}
	for _, s := range q.Select {
		fmt.Fprintf(&b, "%s.%s,", strings.ToLower(s.Table), strings.ToLower(s.Column))
	}
	b.WriteString(";from:")
	for _, t := range q.Tables {
		b.WriteString(strings.ToLower(t))
		b.WriteByte(',')
	}
	b.WriteString(";on:")
	for _, c := range q.Conds {
		fmt.Fprintf(&b, "%s.%s=%s.%s,",
			strings.ToLower(c.Left.Table), strings.ToLower(c.Left.Column),
			strings.ToLower(c.Right.Table), strings.ToLower(c.Right.Column))
	}
	b.WriteString(";where:")
	for _, p := range q.Predicates {
		fmt.Fprintf(&b, "%s.%s in(", strings.ToLower(p.Table), strings.ToLower(p.Column))
		for _, v := range p.Values {
			fmt.Fprintf(&b, "%q,", v) // values stay case-sensitive
		}
		b.WriteString("),")
	}
	return b.String()
}

// cachedPlan returns a copy of the cached plan for key, or nil.
func (c *Catalog) cachedPlan(key string) *Plan {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	el, ok := c.planByKey[key]
	if !ok {
		return nil
	}
	c.planLRU.MoveToFront(el)
	cp := el.Value.(*planEntry).plan
	return &cp
}

// storePlan caches a freshly compiled plan by value, evicting the
// least-recently-used shape beyond the cache bound.
func (c *Catalog) storePlan(key string, p *Plan) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.planByKey == nil {
		c.planByKey = make(map[string]*list.Element)
		c.planLRU = list.New()
	}
	if el, ok := c.planByKey[key]; ok {
		el.Value.(*planEntry).plan = *p
		c.planLRU.MoveToFront(el)
		return
	}
	c.planByKey[key] = c.planLRU.PushFront(&planEntry{key: key, plan: *p})
	for c.planLRU.Len() > maxCachedPlans {
		back := c.planLRU.Back()
		delete(c.planByKey, back.Value.(*planEntry).key)
		c.planLRU.Remove(back)
	}
}

// invalidatePlans empties the plan cache; called by every catalog
// mutation that feeds a planning decision.
func (c *Catalog) invalidatePlans() {
	c.planMu.Lock()
	c.planByKey = nil
	c.planLRU = nil
	c.planMu.Unlock()
}
