package sql_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/server"
	"repro/internal/sql"
)

// The end-to-end SQL conformance suite: every query is compiled once
// and then executed seven ways —
//
//  1. in-process full scan        (engine.OpenJoin, JoinSpec.Query)
//  2. in-process prefiltered      (engine.OpenJoin, JoinSpec.Prefilter)
//  3. wire full scan              (client.JoinWith)
//  4. wire prefiltered            (client.JoinWith{Prefilter})
//  5. wire, planner-chosen        (client.ExecutePlan: the one runner)
//  6. wire job                    (Cluster.SubmitPlan, then WaitJob)
//  7. in-process repeat           (mode 1 re-run under the same token)
//
// — and all seven must produce identical row sets, identical decrypted
// payloads, and identical sigma(q) revealed-pair counts. This is the
// regression net that pins plan equivalence for all future planner
// work: a planner that picks the wrong strategy still has to produce
// the right answer, and a prefilter bug that drops or invents rows
// fails loudly against the full-scan reference.

// conformanceQuery is one suite entry. rows lists the expected result
// as (teams row, employees row) pairs, in canonical (sorted) order.
type conformanceQuery struct {
	name  string
	query string
	rows  [][2]int
	// fullScan marks queries the planner must NOT prefilter (no WHERE
	// clause); everything else must plan prefiltered against the
	// indexed uploads.
	fullScan bool
}

const conformanceBase = `SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team`

// Dataset: Teams (join Key; attrs Name=0, Dept=1) and Employees (join
// Team; attrs Role=0, Level=1). Kept tiny — every full scan pays one
// SJ.Dec pairing per row.
//
//	Teams:     0: key 1, Web Application, Eng     -> team-web
//	           1: key 2, Database,        Eng     -> team-db
//	           2: key 3, Helpdesk,        Support -> team-help
//	Employees: 0: team 1, Programmer, level 2     -> hans
//	           1: team 1, Tester,     level 1     -> kaily
//	           2: team 2, Programmer, level 1     -> john
//	           3: team 3, Operator,   level 3     -> omar
func conformanceTables() (teams, employees []engine.PlainRow) {
	teams = []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application"), []byte("Eng")}, Payload: []byte("team-web")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database"), []byte("Eng")}, Payload: []byte("team-db")},
		{JoinValue: []byte("3"), Attrs: [][]byte{[]byte("Helpdesk"), []byte("Support")}, Payload: []byte("team-help")},
	}
	employees = []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Programmer"), []byte("2")}, Payload: []byte("hans")},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester"), []byte("1")}, Payload: []byte("kaily")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer"), []byte("1")}, Payload: []byte("john")},
		{JoinValue: []byte("3"), Attrs: [][]byte{[]byte("Operator"), []byte("3")}, Payload: []byte("omar")},
	}
	return
}

var conformanceQueries = []conformanceQuery{
	{name: "no where", query: conformanceBase,
		rows: [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 3}}, fullScan: true},
	{name: "eq on A", query: conformanceBase + ` WHERE Teams.Name = 'Web Application'`,
		rows: [][2]int{{0, 0}, {0, 1}}},
	{name: "eq on B", query: conformanceBase + ` WHERE Employees.Role = 'Programmer'`,
		rows: [][2]int{{0, 0}, {1, 2}}},
	{name: "eq both sides", query: conformanceBase + ` WHERE Teams.Name = 'Database' AND Employees.Role = 'Programmer'`,
		rows: [][2]int{{1, 2}}},
	{name: "IN on A", query: conformanceBase + ` WHERE Teams.Name IN ('Web Application', 'Database')`,
		rows: [][2]int{{0, 0}, {0, 1}, {1, 2}}},
	// With NDV stats synced (3 distinct team keys), an IN covering as
	// many values as the table has distinct join values estimates to the
	// whole table — the planner now correctly refuses the index probe.
	{name: "IN all roles", query: conformanceBase + ` WHERE Employees.Role IN ('Programmer', 'Tester', 'Operator')`,
		rows: [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 3}}, fullScan: true},
	{name: "same-column conjuncts merge", query: conformanceBase + ` WHERE Employees.Role = 'Programmer' AND Employees.Role IN ('Tester')`,
		rows: [][2]int{{0, 0}, {0, 1}, {1, 2}}},
	{name: "multi-attr conjunction one side", query: conformanceBase + ` WHERE Employees.Role = 'Programmer' AND Employees.Level = '1'`,
		rows: [][2]int{{1, 2}}},
	{name: "multi-attr conjunction both sides", query: conformanceBase + ` WHERE Teams.Dept = 'Support' AND Teams.Name IN ('Web Application', 'Helpdesk') AND Employees.Level IN ('3', '1')`,
		rows: [][2]int{{2, 3}}},
	{name: "absent value", query: conformanceBase + ` WHERE Teams.Name = 'Nonexistent'`,
		rows: nil},
	{name: "conjunction empties", query: conformanceBase + ` WHERE Employees.Role = 'Programmer' AND Employees.Level = '3'`,
		rows: nil},
	{name: "reversed ON", query: `SELECT * FROM Teams JOIN Employees ON Employees.Team = Teams.Key WHERE Teams.Dept = 'Eng'`,
		rows: [][2]int{{0, 0}, {0, 1}, {1, 2}}},
	{name: "lowercase everything", query: `select * from teams join employees on teams.key = employees.team where employees.role = 'Operator'`,
		rows: [][2]int{{2, 3}}},
	{name: "escaped quote value", query: conformanceBase + ` WHERE Teams.Name = 'it''s'`,
		rows: nil},
	{name: "number literal", query: conformanceBase + ` WHERE Employees.Level = 1`,
		rows: [][2]int{{0, 1}, {1, 2}}},
	{name: "number IN", query: conformanceBase + ` WHERE Employees.Level IN (1, 2)`,
		rows: [][2]int{{0, 0}, {0, 1}, {1, 2}}},
	{name: "duplicate IN values", query: conformanceBase + ` WHERE Teams.Name IN ('Web Application', 'Web Application')`,
		rows: [][2]int{{0, 0}, {0, 1}}},
	{name: "cross-side mixed IN", query: conformanceBase + ` WHERE Teams.Dept = 'Eng' AND Employees.Role IN ('Tester', 'Operator')`,
		rows: [][2]int{{0, 1}}},
	{name: "dept only", query: conformanceBase + ` WHERE Teams.Dept = 'Support'`,
		rows: [][2]int{{2, 3}}},
	{name: "IN covering every value", query: conformanceBase + ` WHERE Teams.Name IN ('Web Application', 'Database', 'Helpdesk')`,
		rows: [][2]int{{0, 0}, {0, 1}, {1, 2}, {2, 3}}, fullScan: true},
}

// canonical renders one execution's result as a sorted, payload-opened
// row list so executions with different batch orders compare equal.
func canonical(t *testing.T, rows []string) string {
	t.Helper()
	sorted := append([]string(nil), rows...)
	sort.Strings(sorted)
	return strings.Join(sorted, "\n")
}

// conformanceOffices is the third table of the multi-join suite: one
// row per office, joined on the team key — so Teams is the hub of a
// 3-way star with Employees and Offices. Team 1 has two offices, which
// pins stitch multiplicity.
//
//	0: key 1, Berlin    -> office-berlin
//	1: key 2, Kitchener -> office-kw
//	2: key 3, Remote    -> office-remote
//	3: key 1, Berlin    -> office-berlin2
func conformanceOffices() []engine.PlainRow {
	return []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Berlin")}, Payload: []byte("office-berlin")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Kitchener")}, Payload: []byte("office-kw")},
		{JoinValue: []byte("3"), Attrs: [][]byte{[]byte("Remote")}, Payload: []byte("office-remote")},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Berlin")}, Payload: []byte("office-berlin2")},
	}
}

// multiJoinCatalog declares the three tables of the multi-join suites.
func multiJoinCatalog(t *testing.T) *sql.Catalog {
	t.Helper()
	cat, err := sql.NewCatalog(
		sql.TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0, "Dept": 1}},
		sql.TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0, "Level": 1}},
		sql.TableSchema{Name: "Offices", JoinColumn: "TeamKey", Attrs: map[string]int{"Site": 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

const multiJoinBase = `SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team JOIN Offices ON Offices.TeamKey = Teams.Key`

// multiJoinQueries: rows are (teams, employees, offices) row triples in
// the tables' declared order.
var multiJoinQueries = []struct {
	name  string
	query string
	rows  [][3]int
}{
	{name: "threeway no where", query: multiJoinBase,
		rows: [][3]int{{0, 0, 0}, {0, 0, 3}, {0, 1, 0}, {0, 1, 3}, {1, 2, 1}, {2, 3, 2}}},
	{name: "threeway filter on hub", query: multiJoinBase + ` WHERE Teams.Dept = 'Eng'`,
		rows: [][3]int{{0, 0, 0}, {0, 0, 3}, {0, 1, 0}, {0, 1, 3}, {1, 2, 1}}},
	{name: "threeway filter two leaves", query: multiJoinBase + ` WHERE Employees.Role = 'Programmer' AND Offices.Site = 'Berlin'`,
		rows: [][3]int{{0, 0, 0}, {0, 0, 3}}},
	{name: "threeway conjunction empties", query: multiJoinBase + ` WHERE Teams.Name = 'Helpdesk' AND Employees.Role = 'Programmer'`,
		rows: nil},
	{name: "threeway IN on offices", query: multiJoinBase + ` WHERE Offices.Site IN ('Kitchener', 'Remote')`,
		rows: [][3]int{{1, 2, 1}, {2, 3, 2}}},
	{name: "threeway comma form", query: `SELECT * FROM Teams, Employees, Offices WHERE Teams.Key = Employees.Team AND Offices.TeamKey = Teams.Key AND Teams.Dept = 'Support'`,
		rows: [][3]int{{2, 3, 2}}},
}

// TestSQLConformanceMultiJoin executes every 3-table query through the
// planner-chosen operator tree in both execution modes — in-process
// (sql.Execute over the engine) and over the wire (client.ExecutePlan)
// — and both must produce identical stitched rows, identical decrypted
// payloads, and identical summed sigma(q) revealed-pair counts, all
// matching the hand-computed ground truth.
func TestSQLConformanceMultiJoin(t *testing.T) {
	srv := server.New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, securejoin.Params{M: 2, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	teams, employees := conformanceTables()
	offices := conformanceOffices()
	for name, rows := range map[string][]engine.PlainRow{
		"Teams": teams, "Employees": employees, "Offices": offices,
	} {
		if err := c.UploadIndexed(name, rows); err != nil {
			t.Fatal(err)
		}
	}

	cat := multiJoinCatalog(t)
	if _, err := c.SyncCatalog(cat); err != nil {
		t.Fatal(err)
	}

	payloads := [][]engine.PlainRow{teams, employees, offices}
	eng := srv.Engine()
	keys := c.Keys()

	for _, cq := range multiJoinQueries {
		cq := cq
		t.Run(cq.name, func(t *testing.T) {
			plan, err := cat.Compile(cq.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Steps) != 2 {
				t.Fatalf("planned %d steps, want 2:\n%s", len(plan.Steps), plan.Describe())
			}
			// The catalog synced real row counts, so the order must be
			// statistics-driven; Teams (3 rows) is the smallest table and
			// the hub, so it anchors every chain regardless of the query.
			if plan.OrderReason != "row statistics (smallest estimated sides first)" {
				t.Fatalf("order reason = %q", plan.OrderReason)
			}
			if !plan.Steps[1].Stitch {
				t.Fatal("second step not marked as a stitch")
			}
			// Semi-join is on by default: the stitch step must carry the
			// reduction, and the stitch side's payload is always skipped
			// (the stitcher reads it from the intermediate).
			if !plan.Steps[1].SemiJoin {
				t.Fatal("stitch step not marked semi-join")
			}
			if !plan.Steps[1].Left.SkipPayload {
				t.Fatal("stitch step left side does not skip its payload")
			}

			render := func(r sql.ResultRow) string {
				return fmt.Sprintf("%d|%d|%d|%s|%s|%s",
					r.Rows[0], r.Rows[1], r.Rows[2], r.Payloads[0], r.Payloads[1], r.Payloads[2])
			}
			var libRows []string
			libRevealed, err := sql.Execute(sql.EngineRunner(eng, keys), plan,
				func(r sql.ResultRow) error { libRows = append(libRows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}
			var wireRows []string
			wireRevealed, err := c.ExecutePlan(plan,
				func(r sql.ResultRow) error { wireRows = append(wireRows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}
			// Full execution (semi-join disabled) is the reference the
			// reduction must match row for row. Revealed pairs may only
			// shrink: a hub row that matched nothing in the previous step
			// is never decrypted again, so its later-step pairs — which
			// full execution reveals and then discards — never surface.
			cat.SetSemiJoin(false)
			fullPlan, err := cat.Compile(cq.query)
			if err != nil {
				t.Fatal(err)
			}
			cat.SetSemiJoin(true)
			if fullPlan.Steps[1].SemiJoin {
				t.Fatal("SetSemiJoin(false) did not clear the stitch step's semi-join flag")
			}
			var fullRows []string
			fullRevealed, err := c.ExecutePlan(fullPlan,
				func(r sql.ResultRow) error { fullRows = append(fullRows, render(r)); return nil })
			if err != nil {
				t.Fatal(err)
			}

			var want []string
			for _, tr := range cq.rows {
				want = append(want, fmt.Sprintf("%d|%d|%d|%s|%s|%s",
					tr[0], tr[1], tr[2],
					payloads[0][tr[0]].Payload, payloads[1][tr[1]].Payload, payloads[2][tr[2]].Payload))
			}
			wantCanon := canonical(t, want)
			libCanon := canonical(t, libRows)
			if libCanon != wantCanon {
				t.Fatalf("lib rows =\n%s\nwant\n%s", libCanon, wantCanon)
			}
			if wireCanon := canonical(t, wireRows); wireCanon != libCanon {
				t.Errorf("wire rows differ from lib:\n%s\nvs\n%s", wireCanon, libCanon)
			}
			if libRevealed != wireRevealed {
				t.Errorf("lib revealed %d pairs, wire revealed %d", libRevealed, wireRevealed)
			}
			if fullCanon := canonical(t, fullRows); fullCanon != libCanon {
				t.Errorf("full execution rows differ from semi-join:\n%s\nvs\n%s", fullCanon, libCanon)
			}
			if libRevealed > fullRevealed {
				t.Errorf("semi-join revealed %d pairs, more than full execution's %d", libRevealed, fullRevealed)
			}

			// Key-only projection: selecting only join columns must yield
			// the same stitched row identities and revealed pairs with
			// every payload column empty.
			keyOnly := strings.Replace(cq.query, "SELECT *", "SELECT Teams.Key, Employees.Team, Offices.TeamKey", 1)
			koPlan, err := cat.Compile(keyOnly)
			if err != nil {
				t.Fatal(err)
			}
			for s := range koPlan.Steps {
				if !koPlan.Steps[s].Left.SkipPayload || !koPlan.Steps[s].Right.SkipPayload {
					t.Fatalf("key-only plan step %d still ships payloads:\n%s", s, koPlan.Describe())
				}
			}
			var koRows []string
			koRevealed, err := c.ExecutePlan(koPlan,
				func(r sql.ResultRow) error {
					for i, p := range r.Payloads {
						if len(p) != 0 {
							t.Errorf("key-only execution delivered a payload for column %d: %q", i, p)
						}
					}
					koRows = append(koRows, fmt.Sprintf("%d|%d|%d", r.Rows[0], r.Rows[1], r.Rows[2]))
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			var wantIDs []string
			for _, tr := range cq.rows {
				wantIDs = append(wantIDs, fmt.Sprintf("%d|%d|%d", tr[0], tr[1], tr[2]))
			}
			if got, want := canonical(t, koRows), canonical(t, wantIDs); got != want {
				t.Errorf("key-only rows =\n%s\nwant\n%s", got, want)
			}
			if koRevealed != libRevealed {
				t.Errorf("key-only revealed %d pairs, semi-join revealed %d", koRevealed, libRevealed)
			}
		})
	}
}

func TestSQLConformance(t *testing.T) {
	srv := server.New(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, securejoin.Params{M: 2, T: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	one, err := client.DialClusterWithKeys([]string{addr}, c.Keys())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { one.Close() })

	teams, employees := conformanceTables()
	if err := c.UploadIndexed("Teams", teams); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadIndexed("Employees", employees); err != nil {
		t.Fatal(err)
	}

	cat, err := sql.NewCatalog(
		sql.TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0, "Dept": 1}},
		sql.TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0, "Level": 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Catalog sync over the wire: both uploads carried indexes, so the
	// planner must see both tables as indexed.
	if _, err := c.SyncCatalog(cat); err != nil {
		t.Fatal(err)
	}

	eng := srv.Engine()
	keys := c.Keys()
	open := func(sealed []byte) string {
		t.Helper()
		pt, err := keys.OpenPayload(sealed)
		if err != nil {
			t.Fatal(err)
		}
		return string(pt)
	}

	for _, cq := range conformanceQueries {
		cq := cq
		t.Run(cq.name, func(t *testing.T) {
			plan, err := cat.Compile(cq.query)
			if err != nil {
				t.Fatal(err)
			}
			wantStrategy := sql.Prefiltered
			if cq.fullScan {
				wantStrategy = sql.FullScan
			}
			if plan.Strategy != wantStrategy {
				t.Fatalf("planner chose %v, want %v", plan.Strategy, wantStrategy)
			}
			a, b := &plan.Steps[0].Left, &plan.Steps[0].Right

			type execution struct {
				mode     string
				rows     []string
				revealed int
			}
			var execs []execution

			// libJoin drains one in-process join and opens its payloads.
			libJoin := func(mode string, spec engine.JoinSpec) {
				t.Helper()
				st, err := eng.OpenJoin(a.Table, b.Table, spec)
				if err != nil {
					t.Fatal(err)
				}
				rows, trace, err := st.Drain()
				if err != nil {
					t.Fatal(err)
				}
				e := execution{mode: mode, revealed: trace.Pairs().Len()}
				for _, r := range rows {
					e.rows = append(e.rows, fmt.Sprintf("%d|%d|%s|%s", r.RowA, r.RowB, open(r.PayloadA), open(r.PayloadB)))
				}
				execs = append(execs, e)
			}

			// 1. In-process full scan — the reference semantics.
			q, err := keys.NewQuery(a.Sel, b.Sel)
			if err != nil {
				t.Fatal(err)
			}
			libJoin("lib-full", engine.JoinSpec{Query: q})

			// 2. In-process prefiltered.
			pq, err := keys.NewPrefilterQuery(a.Sel, b.Sel)
			if err != nil {
				t.Fatal(err)
			}
			libJoin("lib-prefiltered", engine.JoinSpec{Prefilter: pq})

			// 3 + 4. Wire full scan and wire prefiltered.
			for _, mode := range []struct {
				name string
				opts client.JoinOpts
			}{
				{"wire-full", client.JoinOpts{}},
				{"wire-prefiltered", client.JoinOpts{Prefilter: true}},
			} {
				rows, revealed, err := c.JoinWith(a.Table, b.Table, a.Sel, b.Sel, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				e := execution{mode: mode.name, revealed: revealed}
				for _, r := range rows {
					e.rows = append(e.rows, fmt.Sprintf("%d|%d|%s|%s", r.RowA, r.RowB, r.PayloadA, r.PayloadB))
				}
				execs = append(execs, e)
			}

			// 5. The planner-chosen wire execution: the compiled plan
			// through the one runner over the synchronous wire transport.
			e := execution{mode: "wire-planned"}
			e.revealed, err = c.ExecutePlan(plan, func(r sql.ResultRow) error {
				e.rows = append(e.rows, fmt.Sprintf("%d|%d|%s|%s", r.Rows[0], r.Rows[1], r.Payloads[0], r.Payloads[1]))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			execs = append(execs, e)

			// 6. The same plan submitted as a job on the server's worker
			// pool and collected once it is done.
			info, err := one.SubmitPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			results, revealed, err := one.WaitJob(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			e = execution{mode: "wire-job", revealed: revealed}
			for _, r := range results {
				e.rows = append(e.rows, fmt.Sprintf("%d|%d|%s|%s", r.RowA, r.RowB, r.PayloadA, r.PayloadB))
			}
			execs = append(execs, e)

			// 7. Same-token re-execution: the full scan's tokens again,
			// against the same tables, with identical rows and sigma.
			libJoin("lib-repeat", engine.JoinSpec{Query: q})

			// Expected rows against the declared ground truth.
			var want []string
			for _, pr := range cq.rows {
				want = append(want, fmt.Sprintf("%d|%d|%s|%s",
					pr[0], pr[1], teams[pr[0]].Payload, employees[pr[1]].Payload))
			}
			wantCanon := canonical(t, want)

			ref := execs[0]
			refCanon := canonical(t, ref.rows)
			if refCanon != wantCanon {
				t.Fatalf("%s rows =\n%s\nwant\n%s", ref.mode, refCanon, wantCanon)
			}
			for _, e := range execs[1:] {
				if got := canonical(t, e.rows); got != refCanon {
					t.Errorf("%s rows differ from %s:\n%s\nvs\n%s", e.mode, ref.mode, got, refCanon)
				}
				if e.revealed != ref.revealed {
					t.Errorf("%s revealed %d pairs, %s revealed %d", e.mode, e.revealed, ref.mode, ref.revealed)
				}
			}
		})
	}
}
