// SQL example: drives the encrypted join engine through the SQL front
// end — the paper's Example 2.1 queries written as actual SQL strings,
// compiled against a catalog and executed over ciphertexts through the
// operator-tree executor, including a 3-way join stitched client-side.
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
		server.Upload(enc)
	}
	// Sync row counts so the planner orders multi-join chains from
	// statistics (none of the tables is SSE-indexed here, so every
	// side full-scans — the paper's exact leakage profile).
	for _, st := range server.TableStats() {
		if err := catalog.SetStats(st.Name, st.Rows, st.Indexed); err != nil {
			log.Fatal(err)
		}
	}

	queries := []string{
		`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		 WHERE Teams.Name = 'Web Application' AND Employees.Role = 'Tester'`,
		`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team
		 WHERE Employees.Role IN ('Programmer', 'Tester') AND Teams.Name = 'Database'`,
		`SELECT * FROM Teams JOIN Employees ON Teams.Key = Employees.Team`,
		// The 3-way form: Offices stitches onto the Teams hub
		// client-side after a second pairwise encrypted join.
		`SELECT * FROM Teams, Employees, Offices
		 WHERE Teams.Key = Employees.Team AND Offices.TeamKey = Teams.Key
		 AND Employees.Role = 'Programmer'`,
	}
	runner := sql.EngineRunner(server, client)
	for _, qs := range queries {
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
}
