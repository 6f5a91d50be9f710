package sql

import (
	"fmt"
	"strings"
	"testing"
)

// planCatalog builds a two-table catalog with configurable index state.
func planCatalog(t *testing.T, indexedA, indexedB bool) *Catalog {
	t.Helper()
	cat, err := NewCatalog(
		TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0, "Dept": 1}, Indexed: indexedA},
		TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0, "Level": 1}, Indexed: indexedB},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

const baseQuery = `SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team`

func TestPlanStrategySelection(t *testing.T) {
	cases := []struct {
		name               string
		indexedA, indexedB bool
		where              string
		strategy           Strategy
		preA, preB         bool
		reasonA, reasonB   string
	}{
		{
			name:     "both indexed, predicates both sides",
			indexedA: true, indexedB: true,
			where:    ` WHERE Teams.Name = 'x' AND Employees.Role = 'y'`,
			strategy: Prefiltered, preA: true, preB: true,
		},
		{
			name:     "no indexes",
			indexedA: false, indexedB: false,
			where:    ` WHERE Teams.Name = 'x' AND Employees.Role = 'y'`,
			strategy: FullScan,
			reasonA:  "no SSE index", reasonB: "no SSE index",
		},
		{
			name:     "indexed but no WHERE",
			indexedA: true, indexedB: true,
			where:    ``,
			strategy: FullScan,
			reasonA:  "no WHERE predicates", reasonB: "no WHERE predicates",
		},
		{
			name:     "mixed: only A indexed, predicates both sides",
			indexedA: true, indexedB: false,
			where:    ` WHERE Teams.Name = 'x' AND Employees.Role = 'y'`,
			strategy: Prefiltered, preA: true,
			reasonB: "no SSE index",
		},
		{
			name:     "predicates only on unindexed side",
			indexedA: true, indexedB: false,
			where:    ` WHERE Employees.Role = 'y'`,
			strategy: FullScan,
			reasonA:  "no WHERE predicates", reasonB: "no SSE index",
		},
		{
			name:     "predicates only on indexed side",
			indexedA: true, indexedB: false,
			where:    ` WHERE Teams.Name = 'x'`,
			strategy: Prefiltered, preA: true,
			reasonB: "no WHERE predicates",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cat := planCatalog(t, c.indexedA, c.indexedB)
			plan, err := cat.Compile(baseQuery + c.where)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Strategy != c.strategy {
				t.Fatalf("strategy = %v, want %v", plan.Strategy, c.strategy)
			}
			if plan.Steps[0].Left.Prefilter != c.preA || plan.Steps[0].Right.Prefilter != c.preB {
				t.Fatalf("prefilter sides = %v/%v, want %v/%v",
					plan.Steps[0].Left.Prefilter, plan.Steps[0].Right.Prefilter, c.preA, c.preB)
			}
			if plan.Steps[0].Left.Reason != c.reasonA || plan.Steps[0].Right.Reason != c.reasonB {
				t.Fatalf("reasons = %q/%q, want %q/%q",
					plan.Steps[0].Left.Reason, plan.Steps[0].Right.Reason, c.reasonA, c.reasonB)
			}
		})
	}
}

// orderCatalog builds a three-table catalog (shared join-key domain)
// with per-table row counts; rows == 0 leaves the count unknown.
func orderCatalog(t *testing.T, rowsA, rowsB, rowsC int) *Catalog {
	t.Helper()
	cat, err := NewCatalog(
		TableSchema{Name: "A", JoinColumn: "k", Attrs: map[string]int{"c": 0}, Indexed: true, RowCount: rowsA},
		TableSchema{Name: "B", JoinColumn: "k", Attrs: map[string]int{"c": 0}, Indexed: true, RowCount: rowsB},
		TableSchema{Name: "C", JoinColumn: "k", Attrs: map[string]int{"c": 0}, Indexed: true, RowCount: rowsC},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// steps renders a plan's chain compactly for pinning: "B*C B*A+" where
// + marks a stitch step.
func stepsString(p *Plan) string {
	var parts []string
	for _, st := range p.Steps {
		s := st.Left.Table + "*" + st.Right.Table
		if st.Stitch {
			s += "+"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// TestJoinOrderFromRowCounts pins that the chain starts at the smallest
// table and grows by the smallest connected table — the
// small-table-first rule of the statistics-driven ordering.
func TestJoinOrderFromRowCounts(t *testing.T) {
	cat := orderCatalog(t, 1000, 10, 100)
	plan, err := cat.Compile(`SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k`)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepsString(plan); got != "B*C B*A+" {
		t.Fatalf("steps = %q, want %q", got, "B*C B*A+")
	}
	if plan.OrderReason != "row statistics (smallest estimated sides first)" {
		t.Fatalf("order reason = %q", plan.OrderReason)
	}
	// The FROM clause still dictates the result column order.
	if len(plan.Tables) != 3 || plan.Tables[0] != "A" || plan.Tables[1] != "B" || plan.Tables[2] != "C" {
		t.Fatalf("result tables = %v", plan.Tables)
	}
}

// TestJoinOrderUsesSelectivity pins that predicate selectivity — not
// just raw row counts — drives the order: a selective predicate shrinks
// a big table's estimated weight below a smaller unfiltered one.
func TestJoinOrderUsesSelectivity(t *testing.T) {
	cat := orderCatalog(t, 1000, 10, 50)
	// A carries one predicate value: est. 100 rows. Without it A (1000)
	// would join last; with C at 50 the order is B, C, A either way, so
	// sharpen: predicate brings A to 100, C stays 50 -> B, C, A. Then
	// make the predicate two-column: est. 1000*0.1*0.1 = 10 rows... but
	// the schema has one attr, so use an equality (0.1): est 100 > 50.
	plan, err := cat.Compile(`SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND A.c = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepsString(plan); got != "B*C B*A+" {
		t.Fatalf("steps = %q, want %q", got, "B*C B*A+")
	}

	// Now give C no statistics edge: shrink A's estimate below C by
	// raising C's rows.
	cat = orderCatalog(t, 1000, 10, 500)
	plan, err = cat.Compile(`SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND A.c = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	// est(A) = 100 < rows(C) = 500: A joins before C.
	if got := stepsString(plan); got != "B*A B*C+" {
		t.Fatalf("steps = %q, want %q", got, "B*A B*C+")
	}
}

// TestJoinOrderUsesNDV pins that distinct-value counts sharpen the
// equality selectivity from the 0.1 default to 1/NDV — and that the
// sharper estimate can flip the join order both ways.
func TestJoinOrderUsesNDV(t *testing.T) {
	// Baseline (no NDV): est(A) = 1000 * 0.1 = 100 > rows(C) = 50, so C
	// joins before A.
	cat := orderCatalog(t, 1000, 10, 50)
	const q = `SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND A.c = 'x'`
	plan, err := cat.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepsString(plan); got != "B*C B*A+" {
		t.Fatalf("steps without NDV = %q, want %q", got, "B*C B*A+")
	}

	// A column with 100 distinct values: est(A) = 1000/100 = 10 ties
	// with rows(B) = 10, so A now anchors the chain ahead of C.
	if err := cat.SetNDV("a", 100); err != nil {
		t.Fatal(err) // case-insensitive lookup
	}
	if plan, err = cat.Compile(q); err != nil {
		t.Fatal(err)
	}
	if got := stepsString(plan); got != "A*B B*C+" {
		t.Fatalf("steps with NDV=100 = %q, want %q", got, "A*B B*C+")
	}

	// Few distinct values make equality *less* selective than the
	// default: est(A) = 1000/2 = 500 > 50 keeps C first.
	if err := cat.SetNDV("A", 2); err != nil {
		t.Fatal(err)
	}
	if plan, err = cat.Compile(q); err != nil {
		t.Fatal(err)
	}
	if got := stepsString(plan); got != "B*C B*A+" {
		t.Fatalf("steps with NDV=2 = %q, want %q", got, "B*C B*A+")
	}

	if err := cat.SetNDV("Nope", 5); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestEstimateRowsNDV pins the estimator arithmetic itself.
func TestEstimateRowsNDV(t *testing.T) {
	eq := func(vals int) []PredSummary { return []PredSummary{{Column: "c", Values: vals}} }
	cases := []struct {
		rows, ndv int
		preds     []PredSummary
		want      int
	}{
		{rows: 1000, ndv: 0, preds: eq(1), want: 100},  // default 0.1
		{rows: 1000, ndv: 100, preds: eq(1), want: 10}, // 1/NDV
		{rows: 1000, ndv: 100, preds: eq(3), want: 30}, // IN scales per value
		{rows: 1000, ndv: 2, preds: eq(5), want: 1000}, // saturates at the table
		{rows: 0, ndv: 100, preds: eq(1), want: -1},    // unknown rows stay unknown
		{rows: 1000, ndv: 100, preds: nil, want: 1000}, // no predicates
	}
	for _, c := range cases {
		if got := estimateRows(c.rows, c.ndv, c.preds); got != c.want {
			t.Errorf("estimateRows(%d, %d, %+v) = %d, want %d", c.rows, c.ndv, c.preds, got, c.want)
		}
	}
}

// TestSetSemiJoin pins the catalog knob: semi-join candidate
// propagation is on by default, toggles off and back on, and only ever
// marks stitch steps.
func TestSetSemiJoin(t *testing.T) {
	cat := orderCatalog(t, 1000, 10, 100)
	const q = `SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k`
	plan, err := cat.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].SemiJoin || !plan.Steps[1].SemiJoin {
		t.Fatalf("default semi-join flags = %v/%v, want false/true",
			plan.Steps[0].SemiJoin, plan.Steps[1].SemiJoin)
	}
	// The stitch step's hub payloads are discarded client-side, so the
	// planner always skips them, whatever the SELECT list.
	if !plan.Steps[1].Left.SkipPayload {
		t.Fatal("stitch step's hub side should skip payloads")
	}

	cat.SetSemiJoin(false)
	if plan, err = cat.Compile(q); err != nil {
		t.Fatal(err)
	}
	if plan.Steps[1].SemiJoin {
		t.Fatal("SetSemiJoin(false) did not disable candidate propagation")
	}
	cat.SetSemiJoin(true)
	if plan, err = cat.Compile(q); err != nil {
		t.Fatal(err)
	}
	if !plan.Steps[1].SemiJoin {
		t.Fatal("SetSemiJoin(true) did not restore candidate propagation")
	}
}

// TestSelectListProjection pins the key-only projection planning: a
// side whose payload columns never appear in the SELECT list is marked
// SkipPayload, and unknown references fail compilation.
func TestSelectListProjection(t *testing.T) {
	cat := orderCatalog(t, 1000, 10, 100)

	// Join-column-only SELECT: every side is key-only.
	plan, err := cat.Compile(`SELECT A.k, B.k, C.k FROM A, B, C WHERE A.k = B.k AND B.k = C.k`)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Steps {
		if !st.Left.SkipPayload || !st.Right.SkipPayload {
			t.Fatalf("key-only SELECT left payloads on: %s*%s = %v/%v",
				st.Left.Table, st.Right.Table, st.Left.SkipPayload, st.Right.SkipPayload)
		}
	}

	// Referencing an attribute keeps that side's payloads.
	plan, err = cat.Compile(`SELECT A.c, B.k, C.k FROM A, B, C WHERE A.k = B.k AND B.k = C.k`)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Steps {
		st := st
		for i, sp := range []*SidePlan{&st.Left, &st.Right} {
			// The stitched hub's payloads are discarded client-side, so
			// its left slot stays key-only regardless.
			if st.Stitch && i == 0 {
				continue
			}
			wantSkip := sp.Table != "A"
			if sp.SkipPayload != wantSkip {
				t.Fatalf("side %s SkipPayload = %v, want %v", sp.Table, sp.SkipPayload, wantSkip)
			}
		}
	}

	// SELECT * keeps every non-stitch payload.
	plan, err = cat.Compile(`SELECT * FROM A JOIN B ON A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Left.SkipPayload || plan.Steps[0].Right.SkipPayload {
		t.Fatal("SELECT * should not skip payloads")
	}

	if _, err = cat.Compile(`SELECT D.c FROM A JOIN B ON A.k = B.k`); err == nil ||
		!strings.Contains(err.Error(), "not part of the join") {
		t.Fatalf("SELECT of foreign table accepted: %v", err)
	}
	if _, err = cat.Compile(`SELECT A.nope FROM A JOIN B ON A.k = B.k`); err == nil {
		t.Fatal("SELECT of unknown column accepted")
	}
}

// TestJoinOrderDeclarationFallback pins the no-statistics behavior: the
// chain follows the FROM clause and says so.
func TestJoinOrderDeclarationFallback(t *testing.T) {
	cat := orderCatalog(t, 0, 0, 0)
	plan, err := cat.Compile(`SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON B.k = C.k`)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepsString(plan); got != "A*B B*C+" {
		t.Fatalf("steps = %q, want %q", got, "A*B B*C+")
	}
	if plan.OrderReason != "declaration order (row statistics missing)" {
		t.Fatalf("order reason = %q", plan.OrderReason)
	}
}

// TestJoinOrderStarStitch pins the star shape: two tables joined
// against one hub both stitch on the hub.
func TestJoinOrderStarStitch(t *testing.T) {
	cat := orderCatalog(t, 5, 1000, 800)
	plan, err := cat.Compile(`SELECT * FROM A JOIN B ON B.k = A.k JOIN C ON C.k = A.k`)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepsString(plan); got != "A*C A*B+" {
		t.Fatalf("steps = %q, want %q", got, "A*C A*B+")
	}
}

// TestTwoTableKeepsDeclarationOrder pins that statistics never reorder
// a two-table plan: its sides A/B stay the ones the query names.
func TestTwoTableKeepsDeclarationOrder(t *testing.T) {
	cat := orderCatalog(t, 1000, 10, 100)
	plan, err := cat.Compile(`SELECT * FROM A JOIN B ON A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Left.Table != "A" || plan.Steps[0].Right.Table != "B" {
		t.Fatalf("two-table sides reordered: %s, %s", plan.Steps[0].Left.Table, plan.Steps[0].Right.Table)
	}
	// The public OrderReason must not claim a statistics-driven order
	// that the two-table compatibility rule overrides.
	if plan.OrderReason != "declared side order (two-table plan)" {
		t.Fatalf("order reason = %q", plan.OrderReason)
	}
}

// TestPrefilterThreshold pins the row-count-aware prefilter rule that
// replaced "any predicate is selective": the estimated candidate set
// must be smaller than the table.
func TestPrefilterThreshold(t *testing.T) {
	cases := []struct {
		name      string
		rows      int
		values    int
		prefilter bool
		reason    string
	}{
		{name: "selective predicate", rows: 100, values: 1, prefilter: true},
		{name: "wide IN saturates", rows: 100, values: 10, reason: "predicates not selective (est. 100 of 100 rows)"},
		{name: "tiny table never wins", rows: 1, values: 1, reason: "predicates not selective (est. 1 of 1 rows)"},
		{name: "unknown rows keeps legacy rule", rows: 0, values: 10, prefilter: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cat := orderCatalog(t, c.rows, 50, 50)
			vals := make([]string, c.values)
			for i := range vals {
				vals[i] = fmt.Sprintf("'v%d'", i)
			}
			q := `SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c IN (` + strings.Join(vals, ", ") + `)`
			plan, err := cat.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Steps[0].Left.Prefilter != c.prefilter {
				t.Fatalf("prefilter = %v, want %v (%+v)", plan.Steps[0].Left.Prefilter, c.prefilter, plan.Steps[0].Left)
			}
			if !c.prefilter && plan.Steps[0].Left.Reason != c.reason {
				t.Fatalf("reason = %q, want %q", plan.Steps[0].Left.Reason, c.reason)
			}
		})
	}
}

// TestSetStats pins the catalog sync surface the backends drive.
func TestSetStats(t *testing.T) {
	cat := planCatalog(t, false, false)
	if err := cat.SetStats("teams", 42, true); err != nil {
		t.Fatal(err) // case-insensitive lookup
	}
	s, err := cat.Schema("Teams")
	if err != nil || !s.Indexed || s.RowCount != 42 {
		t.Fatalf("stats not set: %+v, %v", s, err)
	}
	// Unknown rows are clamped, not stored negative.
	if err := cat.SetStats("Teams", -7, false); err != nil {
		t.Fatal(err)
	}
	if s, _ = cat.Schema("Teams"); s.RowCount != 0 || s.Indexed {
		t.Fatalf("negative rows not clamped: %+v", s)
	}
	if err := cat.SetStats("Nope", 1, true); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestParseExplain(t *testing.T) {
	q, err := Parse(`EXPLAIN ` + baseQuery + ` WHERE Teams.Name = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain {
		t.Fatal("Explain flag not set")
	}
	if q, err = Parse(`explain ` + baseQuery); err != nil || !q.Explain {
		t.Fatalf("lowercase explain: %v, %+v", err, q)
	}
	if q, err = Parse(baseQuery); err != nil || q.Explain {
		t.Fatalf("plain query: %v, explain=%v", err, q.Explain)
	}
	// EXPLAIN must prefix a whole statement, not appear mid-query.
	if _, err = Parse(`SELECT EXPLAIN * FROM A JOIN B ON A.k = B.k`); err == nil {
		t.Fatal("accepted misplaced EXPLAIN")
	}
	cat := planCatalog(t, true, true)
	plan, err := cat.Compile(`EXPLAIN ` + baseQuery + ` WHERE Teams.Name = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Explain {
		t.Fatal("plan lost the Explain flag")
	}
}

func TestPlanPredSummaries(t *testing.T) {
	cat := planCatalog(t, true, true)
	// Dept appears before Name in the WHERE clause sorted order but
	// after it in source order; same-column conjuncts merge.
	plan, err := cat.Compile(baseQuery +
		` WHERE Teams.name = 'x' AND Teams.DEPT IN ('a', 'b') AND Employees.Role = 'r' AND Employees.Role IN ('s', 't')`)
	if err != nil {
		t.Fatal(err)
	}
	wantA := []PredSummary{{Column: "Dept", Values: 2}, {Column: "Name", Values: 1}}
	wantB := []PredSummary{{Column: "Role", Values: 3}}
	assertPreds := func(got, want []PredSummary, side string) {
		if len(got) != len(want) {
			t.Fatalf("side %s preds = %+v, want %+v", side, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("side %s preds[%d] = %+v, want %+v", side, i, got[i], want[i])
			}
		}
	}
	assertPreds(plan.Steps[0].Left.Preds, wantA, "A")
	assertPreds(plan.Steps[0].Right.Preds, wantB, "B")
	if plan.Steps[0].Left.Tokens() != 3 || plan.Steps[0].Right.Tokens() != 3 {
		t.Fatalf("token counts = %d/%d, want 3/3", plan.Steps[0].Left.Tokens(), plan.Steps[0].Right.Tokens())
	}
}

// TestSetIndexed: the index bit SyncCatalog sets through SetStats is
// what turns a selective side's prefilter on and off.
func TestSetIndexed(t *testing.T) {
	cat := planCatalog(t, false, false)
	for _, indexed := range []bool{true, false} {
		if err := cat.SetStats("teams", 0, indexed); err != nil {
			t.Fatal(err) // case-insensitive lookup
		}
		plan, err := cat.Compile(baseQuery + ` WHERE Teams.Name = 'x'`)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Steps[0].Left.Prefilter != indexed {
			t.Fatalf("indexed=%v: side A prefilter = %v", indexed, plan.Steps[0].Left.Prefilter)
		}
	}
	if err := cat.SetStats("Nope", 0, true); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestCatalogRejectsCaseFoldCollisions(t *testing.T) {
	if _, err := NewCatalog(TableSchema{
		Name: "T", JoinColumn: "k",
		Attrs: map[string]int{"Role": 0, "role": 1},
	}); err == nil || !strings.Contains(err.Error(), "collide") {
		t.Fatalf("colliding attrs accepted: %v", err)
	}
	if _, err := NewCatalog(TableSchema{
		Name: "T", JoinColumn: "Key",
		Attrs: map[string]int{"KEY": 0},
	}); err == nil || !strings.Contains(err.Error(), "collide") {
		t.Fatalf("attr colliding with join column accepted: %v", err)
	}
	if _, err := NewCatalog(TableSchema{
		Name: "T", JoinColumn: "k",
		Attrs: map[string]int{"c": -1},
	}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative attribute index accepted: %v", err)
	}
	// Two columns on one attribute slot would compile `c = 'x' AND
	// d = 'y'` into one IN clause, silently turning AND into OR.
	if _, err := NewCatalog(TableSchema{
		Name: "T", JoinColumn: "k",
		Attrs: map[string]int{"c": 0, "d": 0},
	}); err == nil || !strings.Contains(err.Error(), "share attribute index") {
		t.Fatalf("duplicate attribute index accepted: %v", err)
	}
}

// TestAttrResolutionDeterministic pins the fix for the old map-iteration
// lookup: even against a schema whose columns case-fold collide (which
// NewCatalog rejects, but nothing forces schemas through NewCatalog),
// resolution must land on the same column every time — sorted order,
// uppercase first.
func TestAttrResolutionDeterministic(t *testing.T) {
	s := TableSchema{
		Name: "T", JoinColumn: "k",
		Attrs: map[string]int{"ROLE": 3, "Role": 7, "role": 9},
	}
	for i := 0; i < 200; i++ {
		name, idx, err := resolveAttr(s, "rOlE")
		if err != nil {
			t.Fatal(err)
		}
		if name != "ROLE" || idx != 3 {
			t.Fatalf("iteration %d: resolved to %q (%d), want ROLE (3)", i, name, idx)
		}
	}
	if _, _, err := resolveAttr(s, "k"); err == nil || !strings.Contains(err.Error(), "join column") {
		t.Fatalf("join-column predicate error lost: %v", err)
	}
	if _, _, err := resolveAttr(s, "nope"); err == nil || !strings.Contains(err.Error(), "no filterable column") {
		t.Fatalf("unknown-column error lost: %v", err)
	}
}
