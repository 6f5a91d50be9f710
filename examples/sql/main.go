// SQL example: drives the encrypted join engine through the SQL front
// end. It first replays the paper's Example 2.1 (Section 2, Tables 1-4):
// the queries at t1 and t2 return Tables 3 and 4, each reveals one
// equality pair (sigma(q)), and after t2 the server holds their
// transitive closure, 2 pairs. Over the same series deterministic
// encryption reveals all 6 pairs at t0, CryptDB all 6 at t1, and Hahn
// et al. 1 at t1 and all 6 at t2 (internal/leakage's
// TestSection21Timeline). Further queries then show an IN list, an
// unfiltered join and a 3-way join stitched client-side, each compiled
// against a catalog and executed over ciphertexts through the
// operator-tree executor.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/sql"
)

func main() {
	client, err := engine.NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		log.Fatal(err)
	}
	server := engine.NewServer()

	// Catalog: which columns are join keys and which are filterable.
	catalog, err := sql.NewCatalog(
		sql.TableSchema{Name: "Teams", JoinColumn: "Key", Attrs: map[string]int{"Name": 0}},
		sql.TableSchema{Name: "Employees", JoinColumn: "Team", Attrs: map[string]int{"Role": 0}},
		sql.TableSchema{Name: "Offices", JoinColumn: "TeamKey", Attrs: map[string]int{"Site": 0}},
	)
	if err != nil {
		log.Fatal(err)
	}

	teams := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application")}, Payload: []byte("Team 1: Web Application")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database")}, Payload: []byte("Team 2: Database")},
	}
	employees := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Programmer")}, Payload: []byte("Hans (Programmer)")},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}, Payload: []byte("Kaily (Tester)")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer")}, Payload: []byte("John (Programmer)")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Tester")}, Payload: []byte("Sally (Tester)")},
	}
	offices := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Berlin")}, Payload: []byte("Office: Berlin")},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Kitchener")}, Payload: []byte("Office: Kitchener")},
	}
	for name, rows := range map[string][]engine.PlainRow{"Teams": teams, "Employees": employees, "Offices": offices} {
		enc, err := client.EncryptTable(name, rows)
		if err != nil {
			log.Fatal(err)
		}
		if err := server.RegisterTable(enc); err != nil {
			log.Fatal(err)
		}
	}
	// Sync row counts so the planner orders multi-join chains from
	// statistics (none of the tables is SSE-indexed here, so every
	// side full-scans — the paper's exact leakage profile).
	for _, st := range server.TableStats() {
		if err := catalog.SetStats(st.Name, st.Rows, st.Indexed); err != nil {
			log.Fatal(err)
		}
	}

	runner := sql.EngineRunner(server, client)
	run := func(qs string) {
		fmt.Println(qs)
		plan, err := catalog.Compile(qs)
		if err != nil {
			log.Fatal(err)
		}
		var rows []sql.ResultRow
		revealed, err := sql.Execute(runner, plan, func(r sql.ResultRow) error {
			rows = append(rows, r)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-> %d rows via %d pairwise join step(s) (%d equality pairs observed by server)\n",
			len(rows), len(plan.Steps), revealed)
		for _, r := range rows {
			for i, p := range r.Payloads {
				if i > 0 {
					fmt.Print(" | ")
				}
				fmt.Printf("%s", p)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	// Example 2.1: t1 returns Table 3 (Kaily), t2 returns Table 4 (John).
	fmt.Println("t1, Table 3:")
	run(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		 WHERE Teams.Name = 'Web Application' AND Employees.Role = 'Tester'`)
	fmt.Println("t2, Table 4:")
	run(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		 WHERE Teams.Name = 'Database' AND Employees.Role = 'Programmer'`)
	_, closure := server.ObservedLeakage()
	fmt.Printf("closure after t2: %d pairs\n", closure.Len())
	for _, p := range closure.Sorted() {
		fmt.Printf("  %v == %v\n", p.A, p.B)
	}
	fmt.Println()

	run(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		 WHERE Employees.Role IN ('Programmer', 'Tester') AND Teams.Name = 'Database'`)
	run(`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team`)
	// The 3-way form: Offices stitches onto the Teams hub client-side
	// after a second pairwise encrypted join.
	run(`SELECT * FROM Teams, Employees, Offices
		 WHERE Teams.Key = Employees.Team AND Offices.TeamKey = Teams.Key
		 AND Employees.Role = 'Programmer'`)
}
