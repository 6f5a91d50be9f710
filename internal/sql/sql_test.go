package sql

import (
	"strings"
	"testing"
)

func TestParseFullQuery(t *testing.T) {
	q, err := Parse(`SELECT * FROM Employees JOIN Teams ON Employees.Team = Teams.Key
		WHERE Teams.Name = 'Web Application' AND Employees.Role IN ('Tester', 'Programmer')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 || q.Tables[0] != "Employees" || q.Tables[1] != "Teams" {
		t.Fatalf("tables = %v", q.Tables)
	}
	if len(q.Conds) != 1 {
		t.Fatalf("%d join conditions", len(q.Conds))
	}
	c := q.Conds[0]
	if c.Left != (ColRef{"Employees", "Team"}) || c.Right != (ColRef{"Teams", "Key"}) {
		t.Fatalf("condition = %+v", c)
	}
	if len(q.Predicates) != 2 {
		t.Fatalf("%d predicates", len(q.Predicates))
	}
	if q.Predicates[0].Table != "Teams" || q.Predicates[0].Values[0] != "Web Application" {
		t.Fatalf("predicate 0 = %+v", q.Predicates[0])
	}
	if len(q.Predicates[1].Values) != 2 {
		t.Fatalf("IN clause parsed as %v", q.Predicates[1].Values)
	}
}

func TestParseMultiTableFrom(t *testing.T) {
	// Comma list, chained JOINs and the mixed form all produce the same
	// table set and join conditions.
	forms := []string{
		`SELECT * FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND A.c = 'x'`,
		`SELECT * FROM A JOIN B ON A.k = B.k JOIN C ON B.k = C.k WHERE A.c = 'x'`,
		`SELECT * FROM A JOIN B ON A.k = B.k, C WHERE B.k = C.k AND A.c = 'x'`,
	}
	for _, f := range forms {
		q, err := Parse(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(q.Tables) != 3 || q.Tables[0] != "A" || q.Tables[1] != "B" || q.Tables[2] != "C" {
			t.Fatalf("%s: tables = %v", f, q.Tables)
		}
		if len(q.Conds) != 2 {
			t.Fatalf("%s: %d join conditions", f, len(q.Conds))
		}
		if len(q.Predicates) != 1 || q.Predicates[0].Table != "A" {
			t.Fatalf("%s: predicates = %+v", f, q.Predicates)
		}
	}
}

func TestParseWhereJoinCondition(t *testing.T) {
	q, err := Parse(`SELECT * FROM A, B WHERE A.c = 'v' AND A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Conds) != 1 || q.Conds[0].Left != (ColRef{"A", "k"}) || q.Conds[0].Right != (ColRef{"B", "k"}) {
		t.Fatalf("conds = %+v", q.Conds)
	}
	if len(q.Predicates) != 1 {
		t.Fatalf("predicates = %+v", q.Predicates)
	}
}

func TestParseRejectsDuplicateTables(t *testing.T) {
	for _, f := range []string{
		`SELECT * FROM A, a WHERE A.k = a.k`,
		`SELECT * FROM A JOIN A ON A.k = A.k`,
	} {
		if _, err := Parse(f); err == nil || !strings.Contains(err.Error(), "twice in FROM") {
			t.Errorf("%s: err = %v", f, err)
		}
	}
}

// TestParseSelectList pins the projection grammar: SELECT * leaves
// Select nil, an explicit list records each qualified reference with
// its byte offset.
func TestParseSelectList(t *testing.T) {
	q, err := Parse(`SELECT * FROM A JOIN B ON A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != nil {
		t.Fatalf("SELECT * produced a projection list: %+v", q.Select)
	}

	q, err = Parse(`SELECT A.k, B.c FROM A JOIN B ON A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 {
		t.Fatalf("projection list = %+v", q.Select)
	}
	if q.Select[0].ColRef != (ColRef{"A", "k"}) || q.Select[1].ColRef != (ColRef{"B", "c"}) {
		t.Fatalf("projection refs = %+v", q.Select)
	}
	// Offsets point into the statement: "A.k" starts right after
	// "SELECT ".
	if q.Select[0].Pos != 7 {
		t.Fatalf("first projection offset = %d, want 7", q.Select[0].Pos)
	}
}

func TestParseNoWhere(t *testing.T) {
	q, err := Parse(`SELECT * FROM A JOIN B ON A.k = B.k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Predicates) != 0 {
		t.Fatal("unexpected predicates")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select * from A join B on A.k = B.k where A.c = 'v'`); err != nil {
		t.Fatal(err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := Parse(`SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Predicates[0].Values[0] != "it's" {
		t.Fatalf("escape handling: %q", q.Predicates[0].Values[0])
	}
}

func TestParseNumberLiteral(t *testing.T) {
	q, err := Parse(`SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c IN (1, 2.5)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Predicates[0].Values[0] != "1" || q.Predicates[0].Values[1] != "2.5" {
		t.Fatalf("number literals: %v", q.Predicates[0].Values)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT a FROM A JOIN B ON A.k = B.k`,          // unqualified projection column
		`SELECT * FROM A`,                              // single table
		`SELECT FROM A JOIN B ON A.k = B.k`,            // empty projection list
		`SELECT A.k, FROM A JOIN B ON A.k = B.k`,       // dangling comma in list
		`SELECT *, A.k FROM A JOIN B ON A.k = B.k`,     // star mixed with columns
		`SELECT * FROM A JOIN B ON k = B.k`,            // unqualified column
		`SELECT * FROM A JOIN B ON A.k = B.k WHERE`,    // dangling WHERE
		`SELECT * FROM A JOIN B ON A.k = B.k trailing`, // trailing garbage
		`SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c IN ()`,
		`SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c = 'unterminated`,
		`SELECT * FROM A JOIN B ON A.k = B.k WHERE A.c LIKE 'x'`,
		`SELECT * FROM A, WHERE A.c = 'x'`, // dangling comma
		`SELECT * FROM A JOIN B`,           // JOIN without ON
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("accepted malformed query %q", c)
		}
	}
}

// TestParseErrorPositions pins that errors for unexpected input in FROM
// and ON lists name the byte offset of the offending token, so a shell
// user can find the typo in a long statement.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		query string
		want  string
	}{
		// offset of "b": "SELECT * FROM a " is 16 bytes.
		{`SELECT * FROM a b ON a.k = b.k`, "offset 16"},
		// offset of WHERE after the dangling comma.
		{`SELECT * FROM a, WHERE a.k = a.k`, "offset 17"},
		// offset of the misplaced literal in the ON list.
		{`SELECT * FROM a JOIN b ON a.k = 'x'`, "offset 32"},
		// offset of EOF after a half-written ON condition.
		{`SELECT * FROM a JOIN b ON a.k =`, "offset 31"},
		// offset of the keyword where the joined table name should be.
		{`SELECT * FROM a JOIN WHERE ON a.k = b.k`, "offset 21"},
		// trailing garbage reports where it starts.
		{`SELECT * FROM a JOIN b ON a.k = b.k nonsense extra`, "offset 36"},
		// single-table FROM points back at the lone table.
		{`SELECT * FROM lonely WHERE lonely.c = 'x'`, "offset 14"},
	}
	for _, c := range cases {
		_, err := Parse(c.query)
		if err == nil {
			t.Errorf("accepted %q", c.query)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error for %q = %q, want substring %q", c.query, err, c.want)
		}
	}
}

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat, err := NewCatalog(
		TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0}},
		TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestPlanQuery(t *testing.T) {
	cat := testCatalog(t)
	plan, err := cat.Compile(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		WHERE Teams.Name = 'Web Application' AND Employees.Role = 'Tester'`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Left.Table != "Teams" || plan.Steps[0].Right.Table != "Employees" {
		t.Fatalf("plan tables: %s, %s", plan.Steps[0].Left.Table, plan.Steps[0].Right.Table)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Stitch {
		t.Fatalf("steps = %+v", plan.Steps)
	}
	if got := plan.Steps[0].Left.Sel[0]; len(got) != 1 || string(got[0]) != "Web Application" {
		t.Fatalf("side A selection = %v", plan.Steps[0].Left.Sel)
	}
	if got := plan.Steps[0].Right.Sel[0]; len(got) != 1 || string(got[0]) != "Tester" {
		t.Fatalf("side B selection = %v", plan.Steps[0].Right.Sel)
	}
}

func TestPlanMergesPredicatesOnSameColumn(t *testing.T) {
	cat := testCatalog(t)
	plan, err := cat.Compile(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		WHERE Employees.Role = 'Tester' AND Employees.Role IN ('Programmer')`)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Steps[0].Right.Sel[0]; len(got) != 2 {
		t.Fatalf("merged IN clause = %v", got)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		query, wantErr string
	}{
		{`SELECT * FROM Nope JOIN Employees ON Nope.Key = Employees.Team`, "unknown table"},
		{`SELECT * FROM Teams JOIN Employees ON Teams.Name = Employees.Team`, "join column"},
		{`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team WHERE Teams.Nope = 'x'`, "no filterable column"},
		{`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team WHERE Teams.Key = 'x'`, "join column"},
		// The ON condition referencing a table outside the FROM list is
		// now a planner error (the parser no longer resolves sides).
		{`SELECT * FROM Teams JOIN Employees ON Teams.Key = Offices.Team`, "not part of the join"},
		// No join condition at all: the join graph is disconnected.
		{`SELECT * FROM Teams, Employees`, "no join condition"},
		{`SELECT * FROM Teams, Employees WHERE Teams.Name = 'x'`, "no join condition"},
	}
	for _, c := range cases {
		_, err := cat.Compile(c.query)
		if err == nil {
			t.Errorf("accepted %q", c.query)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("error for %q = %v, want substring %q", c.query, err, c.wantErr)
		}
	}
}

func TestCatalogValidation(t *testing.T) {
	if _, err := NewCatalog(
		TableSchema{Name: "T", JoinColumn: "k"},
		TableSchema{Name: "t", JoinColumn: "k"},
	); err == nil {
		t.Fatal("duplicate (case-insensitive) table accepted")
	}
	if _, err := NewCatalog(TableSchema{Name: "T"}); err == nil {
		t.Fatal("schema without join column accepted")
	}
	if _, err := NewCatalog(TableSchema{Name: "T", JoinColumn: "k", RowCount: -1}); err == nil {
		t.Fatal("negative row count accepted")
	}
}

func TestPlanPredicateOnForeignTable(t *testing.T) {
	cat := testCatalog(t)
	_, err := cat.Compile(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		WHERE Other.Col = 'x'`)
	if err == nil || !strings.Contains(err.Error(), "not part of the join") {
		t.Fatalf("err = %v", err)
	}
}
