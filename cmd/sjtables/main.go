// Command sjtables reproduces the worked example of Section 2 (Tables
// 1-4) over genuinely encrypted data: it uploads the Teams and Employees
// tables, executes the two queries of the t1/t2 timeline through the
// Secure Join engine, prints the decrypted results and reports the
// equality pairs the server observed — demonstrating that the series of
// queries leaks exactly the transitive closure of the per-query
// leakages.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/securejoin"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sjtables:", err)
		os.Exit(1)
	}
}

func run() error {
	client, err := engine.NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		return err
	}
	server := engine.NewServer()

	teams := []engine.PlainRow{
		row("1", "Web Application", "1|Web Application"),
		row("2", "Database", "2|Database"),
	}
	employees := []engine.PlainRow{
		row("1", "Programmer", "1|Hans|Programmer|1"),
		row("1", "Tester", "2|Kaily|Tester|1"),
		row("2", "Programmer", "3|John|Programmer|2"),
		row("2", "Tester", "4|Sally|Tester|2"),
	}

	fmt.Println("Table 1: Teams (Key, Name)")
	fmt.Println("  1  Web Application")
	fmt.Println("  2  Database")
	fmt.Println("Table 2: Employees (Record, Employee, Role, Team)")
	fmt.Println("  1  Hans   Programmer  1")
	fmt.Println("  2  Kaily  Tester      1")
	fmt.Println("  3  John   Programmer  2")
	fmt.Println("  4  Sally  Tester      2")
	fmt.Println()

	encTeams, err := client.EncryptTable("Teams", teams)
	if err != nil {
		return err
	}
	encEmployees, err := client.EncryptTable("Employees", employees)
	if err != nil {
		return err
	}
	server.Upload(encTeams)
	server.Upload(encEmployees)
	fmt.Println("t0: encrypted database uploaded; server has observed 0 equality pairs")
	fmt.Println()

	// t1: ... WHERE Name = "Web Application" AND Role = "Tester"
	sigma1, err := runQuery(client, server,
		`SELECT * FROM Employees JOIN Teams ON Team = Key WHERE Name = "Web Application" AND Role = "Tester"`,
		securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
		securejoin.Selection{0: [][]byte{[]byte("Tester")}},
		"Table 3 (result at t1)")
	if err != nil {
		return err
	}

	// t2: ... WHERE Name = "Database" AND Role = "Programmer"
	sigma2, err := runQuery(client, server,
		`SELECT * FROM Employees JOIN Teams ON Team = Key WHERE Name = "Database" AND Role = "Programmer"`,
		securejoin.Selection{0: [][]byte{[]byte("Database")}},
		securejoin.Selection{0: [][]byte{[]byte("Programmer")}},
		"Table 4 (result at t2)")
	if err != nil {
		return err
	}

	_, closure := server.ObservedLeakage()
	fmt.Println("Cumulative server view after both queries:")
	for i, sigma := range []int{sigma1, sigma2} {
		fmt.Printf("  sigma(q%d): %d pair(s)\n", i+1, sigma)
	}
	fmt.Printf("  transitive closure of union: %d pair(s)\n", closure.Len())
	for _, p := range closure.Sorted() {
		fmt.Printf("    %v == %v\n", p.A, p.B)
	}
	fmt.Println()
	fmt.Println("Deterministic encryption would have revealed 6 pairs at t0;")
	fmt.Println("CryptDB reveals 6 at t1; Hahn et al. reveal 6 by t2 (super-additive).")
	fmt.Println("Secure Join reveals exactly the 2 pairs above — the minimum.")
	return nil
}

// runQuery executes one query of the timeline and prints its result;
// it returns |sigma(q)|, the pairs the server observed.
func runQuery(client *engine.Client, server *engine.Server, sql string,
	selTeams, selEmployees securejoin.Selection, label string) (int, error) {
	fmt.Println(sql)
	q, err := client.NewQuery(selTeams, selEmployees)
	if err != nil {
		return 0, err
	}
	stream, err := server.OpenJoin("Teams", "Employees", engine.JoinSpec{Query: q})
	if err != nil {
		return 0, err
	}
	rows, _, err := stream.Drain()
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s — %d row(s):\n", label, len(rows))
	for _, r := range rows {
		pa, err := client.OpenPayload(r.PayloadA)
		if err != nil {
			return 0, err
		}
		pb, err := client.OpenPayload(r.PayloadB)
		if err != nil {
			return 0, err
		}
		emp := strings.Split(string(pb), "|")
		team := strings.Split(string(pa), "|")
		fmt.Printf("  Record=%s Employee=%s Role=%s T.Key=%s T.Name=%s\n",
			emp[0], emp[1], emp[2], team[0], team[1])
	}
	fmt.Printf("  server observed %d equality pair(s) for this query\n\n", stream.RevealedPairs())
	return stream.RevealedPairs(), nil
}

func row(join, attr, payload string) engine.PlainRow {
	return engine.PlainRow{
		JoinValue: []byte(join),
		Attrs:     [][]byte{[]byte(attr)},
		Payload:   []byte(payload),
	}
}
