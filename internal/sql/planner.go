package sql

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/securejoin"
)

// TableSchema declares how a named table maps onto the Secure Join row
// layout: which column is the join column and, for each filterable
// column, its attribute index in the encrypted vector.
type TableSchema struct {
	Name string
	// JoinColumn is the column encrypted as the row's join value.
	JoinColumn string
	// Attrs maps filterable column names to their attribute index
	// (0 <= index < Params.M).
	Attrs map[string]int
	// Indexed records whether the table was uploaded with an SSE
	// pre-filter index. The planner chooses prefiltered execution for a
	// side only when its table is indexed. It is catalog metadata, not
	// ground truth: feed it from engine.Server.TableStats in process or
	// from client.DescribeTables over the wire (see Catalog.SetStats).
	Indexed bool
	// RowCount is the table's last known row count, the statistic the
	// planner's join ordering and prefilter thresholds consult. 0 means
	// unknown: ordering falls back to declaration order and any
	// predicate is treated as selective. Sync it alongside Indexed from
	// engine.Server.TableStats or client.DescribeTables.
	RowCount int
	// NDV is the table's distinct-join-value count (0 = unknown),
	// computed client-side at encrypt time and echoed by
	// TableStats/Describe. When present, the planner replaces the fixed
	// defaultEqSelectivity guess with a per-value selectivity of 1/NDV —
	// an approximation (the count is over the join column, predicates
	// are over attributes), but one anchored to the table's real value
	// diversity instead of a constant.
	NDV int
}

// Catalog is the set of known table schemas, keyed case-insensitively.
type Catalog struct {
	tables map[string]TableSchema
	// met records planner decisions; nil-safe no-op until Instrument.
	met sqlMetrics
	// noSemiJoin disables the semi-join reduction on stitch steps
	// (stored inverted so the zero-value catalog keeps it on — the
	// reduction is leakage-neutral and strictly cheaper). See
	// SetSemiJoin.
	noSemiJoin bool

	// Plan cache (see plancache.go): compiled plans keyed by normalized
	// query shape, cleared whenever a catalog mutation could change a
	// planning decision. planMu guards both structures.
	planMu    sync.Mutex
	planByKey map[string]*list.Element
	planLRU   *list.List
}

// NewCatalog builds a catalog from schemas, rejecting duplicates and
// column names that collide case-insensitively — column resolution is
// case-insensitive, so a schema with both "Role" and "role" would make
// predicate compilation ambiguous.
func NewCatalog(schemas ...TableSchema) (*Catalog, error) {
	c := &Catalog{tables: make(map[string]TableSchema, len(schemas))}
	for _, s := range schemas {
		key := strings.ToLower(s.Name)
		if _, dup := c.tables[key]; dup {
			return nil, fmt.Errorf("sql: duplicate table %q in catalog", s.Name)
		}
		if s.JoinColumn == "" {
			return nil, fmt.Errorf("sql: table %q has no join column", s.Name)
		}
		if s.RowCount < 0 {
			return nil, fmt.Errorf("sql: table %q has negative row count %d", s.Name, s.RowCount)
		}
		seen := make(map[string]string, len(s.Attrs)+1)
		seen[strings.ToLower(s.JoinColumn)] = s.JoinColumn
		seenIdx := make(map[int]string, len(s.Attrs))
		for name, idx := range s.Attrs {
			if idx < 0 {
				return nil, fmt.Errorf("sql: table %q: column %q has negative attribute index %d", s.Name, name, idx)
			}
			folded := strings.ToLower(name)
			if prev, dup := seen[folded]; dup {
				return nil, fmt.Errorf("sql: table %q: columns %q and %q collide case-insensitively", s.Name, prev, name)
			}
			seen[folded] = name
			// Two columns on one attribute slot would merge their AND'ed
			// predicates into a single IN clause — a conjunction silently
			// executed as a disjunction.
			if prev, dup := seenIdx[idx]; dup {
				return nil, fmt.Errorf("sql: table %q: columns %q and %q share attribute index %d", s.Name, prev, name, idx)
			}
			seenIdx[idx] = name
		}
		c.tables[key] = s
	}
	return c, nil
}

// SetStats records a table's execution statistics: its row count and
// whether it carries an SSE pre-filter index. The planner consults both
// for join ordering (small tables first) and for the prefilter
// threshold (estimated candidates must beat a full scan). rows <= 0
// marks the count unknown.
func (c *Catalog) SetStats(name string, rows int, indexed bool) error {
	key := strings.ToLower(name)
	s, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("sql: unknown table %q", name)
	}
	if rows < 0 {
		rows = 0
	}
	s.RowCount = rows
	s.Indexed = indexed
	c.tables[key] = s
	c.invalidatePlans()
	return nil
}

// SetNDV records a table's distinct-join-value count, the statistic
// that replaces the fixed per-value selectivity guess with 1/NDV (see
// TableSchema.NDV). ndv <= 0 marks the count unknown. Kept separate
// from SetStats so existing callers syncing rows+indexed keep their
// signature.
func (c *Catalog) SetNDV(name string, ndv int) error {
	key := strings.ToLower(name)
	s, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("sql: unknown table %q", name)
	}
	if ndv < 0 {
		ndv = 0
	}
	s.NDV = ndv
	c.tables[key] = s
	c.invalidatePlans()
	return nil
}

// SetSemiJoin toggles the semi-join reduction: when on (the default),
// every stitch step ships the hub rows matched by the previous step as
// an explicit candidate list, so the server decrypts only those rows.
// The list is a subset of the pairs sigma(q) already revealed, so the
// reduction is leakage-neutral; turning it off reproduces the full
// re-decryption behavior (useful for ablation benchmarks).
func (c *Catalog) SetSemiJoin(enabled bool) {
	c.noSemiJoin = !enabled
	c.invalidatePlans()
}

// TableNames lists the catalog's declared table names, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for _, s := range c.tables {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// Schema looks up a table schema by name.
func (c *Catalog) Schema(name string) (TableSchema, error) {
	s, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return TableSchema{}, fmt.Errorf("sql: unknown table %q", name)
	}
	return s, nil
}

// Strategy is the execution strategy a plan (or one of its pairwise
// join steps) selected.
type Strategy int

const (
	// FullScan runs SJ.Dec over every row of both tables — the paper's
	// exact leakage profile (Theorem 5.2).
	FullScan Strategy = iota
	// Prefiltered resolves WHERE predicates through SSE indexes first
	// (Section 4.3), paying SJ.Dec only for candidate rows on the
	// prefiltered sides. Costs per-attribute access-pattern leakage.
	Prefiltered
)

func (s Strategy) String() string {
	if s == Prefiltered {
		return "prefiltered"
	}
	return "full scan"
}

// defaultEqSelectivity is the fraction of a table's rows one predicate
// value is assumed to match when no histogram exists: an equality
// selects ~10% of the rows, an IN clause with k values ~k*10% (capped
// at the whole table), and conjuncts on different columns multiply.
// Deliberately pessimistic — with real row counts it only has to
// separate "worth an index probe" from "touches everything anyway".
const defaultEqSelectivity = 0.1

// PredSummary describes the compiled predicates of one column: the
// schema-declared column name and the number of IN-clause values after
// merging same-column conjuncts. One SSE search token is issued per
// value when the side is prefiltered.
type PredSummary struct {
	Column string
	Values int
}

// SidePlan is the per-table leaf of a plan tree — a Scan with an
// optional Prefilter on top: which table is read, the statistics the
// decision consulted, whether the side will be pre-filtered through
// its SSE index, and why not if it won't.
type SidePlan struct {
	Table   string
	Indexed bool
	// RowCount is the catalog's row count for the table (0 = unknown).
	RowCount int
	// EstRows is the estimated number of rows surviving the side's
	// predicates under the default selectivity model; -1 when RowCount
	// is unknown.
	EstRows int
	// Preds lists the side's compiled predicates in deterministic
	// (sorted-by-column) order.
	Preds []PredSummary
	// Sel is the side's compiled Selection, enforced cryptographically
	// by the join tokens of every step the table participates in.
	Sel securejoin.Selection
	// Prefilter is true when this side's predicates are resolved
	// through the table's SSE index before SJ.Dec.
	Prefilter bool
	// Reason explains a full-scan decision for this side; empty when
	// Prefilter is true.
	Reason string
	// SkipPayload marks a key-only side: the SELECT list never
	// references the table's payload (or, for the left side of a stitch
	// step, the stitcher takes the payload from the intermediate), so
	// the step skips sealed-payload shipping and decryption for it
	// entirely. Strictly leakage-reducing — the server learns only that
	// fewer ciphertexts left the building.
	SkipPayload bool
}

// Tokens is the number of SSE search tokens a prefiltered execution
// derives for this side (one per predicate value).
func (sp *SidePlan) Tokens() int {
	n := 0
	for _, p := range sp.Preds {
		n += p.Values
	}
	return n
}

// weight is the side's estimated effective row count, the quantity the
// join ordering minimizes. Unknown statistics weigh MaxInt so known
// tables sort first and ties fall back to declaration order.
func (sp *SidePlan) weight() int {
	if sp.EstRows >= 0 {
		return sp.EstRows
	}
	if sp.RowCount > 0 {
		return sp.RowCount
	}
	return math.MaxInt
}

// JoinStep is one pairwise encrypted join of a left-deep plan: Left and
// Right are its Scan/Prefilter leaves, Strategy is Prefiltered when
// either side resolves predicates through its SSE index. For every step
// after the first, Stitch is true and Left names a table that is
// already part of the intermediate result: the step still executes as a
// complete pairwise encrypted join on the server, and the client
// stitches its decrypted pairs into the intermediate on Left's row
// identity (bind-join style — no join keys or candidate lists are ever
// sent back to the server).
type JoinStep struct {
	Left, Right SidePlan
	Strategy    Strategy
	Stitch      bool
	// SemiJoin marks a stitch step that ships the hub rows matched by
	// the previous step as an explicit candidate list, so SJ.Dec runs
	// only over rows sigma(q) already revealed (leakage-neutral: the
	// list is a subset of the prior step's revealed pairs). Off when
	// the catalog disabled the reduction (Catalog.SetSemiJoin).
	SemiJoin bool
}

// Plan is a validated, executable query: the left-deep chain of
// pairwise encrypted joins the planner chose, each side's Selection and
// prefilter decision, and the order statistics drove. Selections are
// always enforced cryptographically by the join tokens; per-side
// Prefilter only decides whether SSE pre-filtering additionally narrows
// the rows SJ.Dec touches. SpecFor compiles one step into the engine's
// JoinSpec and Execute runs the whole tree (see exec.go).
type Plan struct {
	// Tables lists the FROM-clause tables in declaration order — the
	// result column order of SELECT *.
	Tables []string
	// Steps is the left-deep chain, in execution order.
	Steps []JoinStep
	// OrderReason says what drove the join order: row statistics or the
	// declaration-order fallback.
	OrderReason string
	// Explain marks an EXPLAIN statement: render Describe() instead of
	// executing.
	Explain bool
	// Strategy is Prefiltered when at least one side of one step
	// pre-filters.
	Strategy Strategy
	// Cached marks a plan served from the catalog's plan cache rather
	// than compiled fresh (see plancache.go).
	Cached bool
}

// PlanQuery validates a parsed query against the catalog and compiles
// the WHERE clause into per-table Selections. Multiple predicates on
// the same column merge into one IN clause. The planner then builds a
// left-deep chain of pairwise encrypted joins: the join order is chosen
// from catalog row counts and estimated predicate selectivity (smallest
// estimated sides first; declaration order when statistics are
// missing), and each side is pre-filtered only when it carries
// predicates, its table has an SSE index, and the estimated candidate
// set is smaller than the table (row-count-aware threshold).
func (c *Catalog) PlanQuery(q *JoinQuery) (*Plan, error) {
	if len(q.Tables) < 2 {
		return nil, fmt.Errorf("sql: a join query names at least two tables")
	}
	// Resolve the FROM tables to schemas and build one side plan per
	// table; canonical schema names are used everywhere downstream.
	schemas := make([]TableSchema, len(q.Tables))
	sides := make([]*SidePlan, len(q.Tables))
	byName := make(map[string]int, len(q.Tables)) // folded name -> table position
	tables := make([]string, len(q.Tables))
	for i, name := range q.Tables {
		s, err := c.Schema(name)
		if err != nil {
			return nil, err
		}
		schemas[i] = s
		tables[i] = s.Name
		byName[strings.ToLower(s.Name)] = i
		sides[i] = &SidePlan{
			Table: s.Name, Indexed: s.Indexed, RowCount: s.RowCount,
			Sel: securejoin.Selection{},
		}
	}

	// Join conditions: each side of a condition must reference a FROM
	// table on its encrypted join column; the conditions form the edges
	// of the join graph the ordering walks.
	type edge struct{ a, b int }
	edges := make([]edge, 0, len(q.Conds))
	for _, cond := range q.Conds {
		ia, err := resolveJoinSide(cond.Left, cond.Pos, schemas, byName)
		if err != nil {
			return nil, err
		}
		ib, err := resolveJoinSide(cond.Right, cond.Pos, schemas, byName)
		if err != nil {
			return nil, err
		}
		if ia == ib {
			return nil, fmt.Errorf("sql: join condition at offset %d relates table %q to itself", cond.Pos, schemas[ia].Name)
		}
		edges = append(edges, edge{ia, ib})
	}

	// Predicates compile into per-table selections; same-column
	// conjuncts merge into one IN clause.
	counts := make([]map[string]int, len(sides))
	for i := range counts {
		counts[i] = make(map[string]int)
	}
	for _, p := range q.Predicates {
		i, ok := byName[strings.ToLower(p.Table)]
		if !ok {
			return nil, fmt.Errorf("sql: predicate references table %q, which is not part of the join (offset %d)", p.Table, p.Pos)
		}
		name, idx, err := resolveAttr(schemas[i], p.Column)
		if err != nil {
			return nil, err
		}
		for _, v := range p.Values {
			sides[i].Sel[idx] = append(sides[i].Sel[idx], []byte(v))
			counts[i][name]++
		}
	}
	for i, sp := range sides {
		sp.Preds = predSummaries(counts[i])
		sp.EstRows = estimateRows(sp.RowCount, schemas[i].NDV, sp.Preds)
		chooseSide(sp)
	}

	// Key-only projections: with an explicit SELECT list, a table whose
	// non-join columns are never referenced ships no payloads at all.
	// SELECT * (nil list) keeps every payload, the legacy behavior.
	if q.Select != nil {
		needPayload := make([]bool, len(sides))
		for _, ref := range q.Select {
			i, ok := byName[strings.ToLower(ref.Table)]
			if !ok {
				return nil, fmt.Errorf("sql: SELECT references table %q, which is not part of the join (offset %d)", ref.Table, ref.Pos)
			}
			if strings.EqualFold(ref.Column, schemas[i].JoinColumn) {
				continue // key reference: row identity only, no payload
			}
			if _, _, err := resolveAttr(schemas[i], ref.Column); err != nil {
				return nil, err
			}
			needPayload[i] = true
		}
		for i, sp := range sides {
			sp.SkipPayload = !needPayload[i]
		}
	}

	// Adjacency over the join graph. Every table sharing an edge with a
	// table is a potential stitch partner; the ordering below picks the
	// lightest connected table next, so star and chain shapes both
	// compile to a left-deep sequence of pairwise joins.
	adj := make([][]int, len(sides))
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e.b)
		adj[e.b] = append(adj[e.b], e.a)
	}

	order, partners, reason, err := chooseOrder(sides, adj)
	if err != nil {
		return nil, err
	}

	plan := &Plan{
		Tables:      tables,
		OrderReason: reason,
		Explain:     q.Explain,
	}
	for n := 1; n < len(order); n++ {
		left, right := sides[partners[n]], sides[order[n]]
		step := JoinStep{Left: *left, Right: *right, Stitch: n > 1}
		if step.Stitch {
			step.SemiJoin = !c.noSemiJoin
			// The stitcher always takes the hub's payload from the
			// intermediate the earlier steps built, never from this
			// step's pairs — the left payload of a stitch step is dead
			// weight regardless of the SELECT list.
			step.Left.SkipPayload = true
		}
		if left.Prefilter || right.Prefilter {
			step.Strategy = Prefiltered
		}
		plan.Steps = append(plan.Steps, step)
		if step.Strategy == Prefiltered {
			plan.Strategy = Prefiltered
		}
	}
	c.met.record(plan, sides)
	return plan, nil
}

// resolveJoinSide maps one side of a join condition onto its FROM-table
// position, enforcing that the referenced column is the table's
// encrypted join column — the only column Secure Join can equate.
func resolveJoinSide(ref ColRef, pos int, schemas []TableSchema, byName map[string]int) (int, error) {
	i, ok := byName[strings.ToLower(ref.Table)]
	if !ok {
		return 0, fmt.Errorf("sql: join condition references table %q, which is not part of the join (offset %d)", ref.Table, pos)
	}
	if !strings.EqualFold(ref.Column, schemas[i].JoinColumn) {
		return 0, fmt.Errorf("sql: table %q can only join on its encrypted join column %q, not %q (offset %d)",
			schemas[i].Name, schemas[i].JoinColumn, ref.Column, pos)
	}
	return i, nil
}

// chooseOrder picks the left-deep join order and, for every table after
// the first, its partner — the already-joined table the pairwise join
// pairs it with (the build side, and the stitch table from the second
// step on). The lightest table (by estimated effective rows) starts the
// chain, each subsequent pick is the lightest remaining table connected
// to the joined set, and its partner is its lightest already-joined
// neighbor, so the build side of every pairwise join stays as small as
// the statistics allow. With no row statistics every weight ties and
// the walk degrades to declaration order, which is also the
// deterministic tie-break. A two-table query always keeps its declared
// side order: both sides of a single pairwise join are decrypted either
// way, so no order does less work, and the declared one keeps the
// step's sides A/B — in EXPLAIN, in the request the server sees and in
// a job's "A JOIN B" — the ones the query text names.
func chooseOrder(sides []*SidePlan, adj [][]int) (order, partners []int, reason string, err error) {
	n := len(sides)
	known := 0
	for _, sp := range sides {
		if sp.RowCount > 0 {
			known++
		}
	}
	better := betterSide(sides)
	start := -1
	for i := 0; i < n; i++ {
		if len(adj[i]) == 0 {
			return nil, nil, "", fmt.Errorf("sql: table %q has no join condition relating it to the other tables", sides[i].Table)
		}
		if better(i, start) {
			start = i
		}
	}
	switch known {
	case n:
		reason = "row statistics (smallest estimated sides first)"
	case 0:
		reason = "declaration order (row statistics missing)"
	default:
		// Connectivity can still force a stats-less table early, so this
		// only claims what is true: known weights were used where the
		// graph allowed.
		reason = "partial row statistics (known sides weighed, unknown heaviest)"
	}
	if n == 2 {
		return []int{0, 1}, []int{-1, 0}, "declared side order (two-table plan)", nil
	}
	order, partners = []int{start}, []int{-1}
	joined := map[int]bool{start: true}
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ {
			if joined[i] {
				continue
			}
			connected := false
			for _, nb := range adj[i] {
				if joined[nb] {
					connected = true
					break
				}
			}
			if connected && better(i, next) {
				next = i
			}
		}
		if next == -1 {
			// Disconnected join graph: name one stranded table.
			for i := 0; i < n; i++ {
				if !joined[i] {
					return nil, nil, "", fmt.Errorf("sql: table %q is not connected to the rest of the join (missing join condition)", sides[i].Table)
				}
			}
		}
		partner := -1
		for _, nb := range adj[next] {
			if joined[nb] && better(nb, partner) {
				partner = nb
			}
		}
		order, partners = append(order, next), append(partners, partner)
		joined[next] = true
	}
	return order, partners, reason, nil
}

// betterSide builds the one ordering comparator both the chain walk
// and the stitch-partner choice use: i is preferred over j (j == -1
// means "no candidate yet") when its estimated weight is strictly
// smaller — unknown statistics weigh heaviest — with declaration order
// as the tie-break, so with no statistics at all the walk reproduces
// the FROM clause.
func betterSide(sides []*SidePlan) func(i, j int) bool {
	return func(i, j int) bool {
		if j == -1 {
			return true
		}
		if wi, wj := sides[i].weight(), sides[j].weight(); wi != wj {
			return wi < wj
		}
		return i < j
	}
}

// estimateRows applies the selectivity model: rows surviving the
// side's predicates, assuming each predicate value matches a fraction
// 1/NDV of the table when the distinct-value count is known and
// defaultEqSelectivity otherwise, with different columns independent.
// Returns -1 when the row count is unknown.
func estimateRows(rowCount, ndv int, preds []PredSummary) int {
	if rowCount <= 0 {
		return -1
	}
	perValue := defaultEqSelectivity
	if ndv > 0 {
		perValue = 1 / float64(ndv)
	}
	frac := 1.0
	for _, p := range preds {
		f := float64(p.Values) * perValue
		if f > 1 {
			f = 1
		}
		frac *= f
	}
	est := int(math.Ceil(float64(rowCount) * frac))
	if est > rowCount {
		est = rowCount
	}
	return est
}

// chooseSide applies the per-side plan-selection rule: pre-filter iff
// the side has predicates, its table carries an SSE index, and — when
// the catalog knows the row count — the estimated candidate set is
// actually smaller than the table. Without statistics any predicate
// counts as selective, the pre-statistics behavior.
func chooseSide(sp *SidePlan) {
	switch {
	case len(sp.Preds) == 0:
		sp.Reason = "no WHERE predicates"
	case !sp.Indexed:
		sp.Reason = "no SSE index"
	case sp.EstRows >= 0 && sp.EstRows >= sp.RowCount:
		sp.Reason = fmt.Sprintf("predicates not selective (est. %d of %d rows)", sp.EstRows, sp.RowCount)
	default:
		sp.Prefilter = true
	}
}

// predSummaries renders per-column value counts in sorted column order,
// so plans (and their EXPLAIN output) are deterministic.
func predSummaries(counts map[string]int) []PredSummary {
	if len(counts) == 0 {
		return nil
	}
	out := make([]PredSummary, 0, len(counts))
	for col, n := range counts {
		out = append(out, PredSummary{Column: col, Values: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Column < out[j].Column })
	return out
}

// Compile parses and plans in one step, memoizing compiled plans by
// normalized query shape (see plancache.go): re-compiling an unchanged
// statement against an unchanged catalog returns a cached copy with
// Cached set, skipping planning entirely. Catalog mutations (SetStats,
// SetNDV, SetSemiJoin) invalidate the cache.
func (c *Catalog) Compile(query string) (*Plan, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	key := canonicalKey(q)
	if p := c.cachedPlan(key); p != nil {
		p.Cached = true
		p.Explain = q.Explain // EXPLAIN and its bare statement share a slot
		c.met.planCacheHits.Inc()
		return p, nil
	}
	c.met.planCacheMisses.Inc()
	p, err := c.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	c.storePlan(key, p)
	return p, nil
}

// resolveAttr maps a query column name onto the schema's declared name
// and attribute index. Candidate columns are scanned in sorted order,
// so resolution — and with it predicate compilation and error
// reporting — is deterministic even for schemas that bypassed
// NewCatalog's collision check.
func resolveAttr(s TableSchema, column string) (string, int, error) {
	names := make([]string, 0, len(s.Attrs))
	for name := range s.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.EqualFold(name, column) {
			return name, s.Attrs[name], nil
		}
	}
	if strings.EqualFold(column, s.JoinColumn) {
		return "", 0, fmt.Errorf("sql: column %q of table %q is the join column; it cannot carry a WHERE predicate", column, s.Name)
	}
	return "", 0, fmt.Errorf("sql: table %q has no filterable column %q", s.Name, column)
}
