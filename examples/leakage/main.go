// Leakage comparison: replays the Section 2.1 timeline (Example 2.1,
// queries at t1 and t2) through the leakage simulators of all four
// schemes and through the real Secure Join engine, showing that
//
//   - deterministic encryption leaks all 6 equal pairs at t0,
//   - CryptDB leaks all 6 at t1,
//   - Hahn et al. leak 2 at t1 but all 6 by t2 (super-additive), and
//   - Secure Join leaks exactly 2 pairs total — the transitive closure
//     of the per-query leakages.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/securejoin"
)

func main() {
	teams := &leakage.Table{
		Name:  "Teams",
		Joins: []string{"1", "2"},
		Attrs: [][]string{{"Web Application"}, {"Database"}},
	}
	employees := &leakage.Table{
		Name:  "Employees",
		Joins: []string{"1", "1", "2", "2"},
		Attrs: [][]string{{"Programmer"}, {"Tester"}, {"Programmer"}, {"Tester"}},
	}
	queries := []leakage.Query{
		{
			SelA: map[int][]string{0: {"Web Application"}},
			SelB: map[int][]string{0: {"Tester"}},
		},
		{
			SelA: map[int][]string{0: {"Database"}},
			SelB: map[int][]string{0: {"Programmer"}},
		},
	}

	fmt.Println("Example 2.1: Teams x Employees, queries at t1 and t2")
	fmt.Println()
	fmt.Println("Revealed equality pairs over time (t0 = after upload):")
	fmt.Printf("%-22s %4s %4s %4s\n", "scheme", "t0", "t1", "t2")
	printTimeline("deterministic (DET)", leakage.DeterministicLeakage(teams, employees, queries))
	printTimeline("CryptDB (onion)", leakage.CryptDBLeakage(teams, employees, queries))
	printTimeline("Hahn et al. (KP-ABE)", leakage.HahnLeakage(teams, employees, queries))
	printTimeline("Secure Join (ours)", leakage.SecureJoinLeakage(teams, employees, queries))
	fmt.Println()

	// Super-additivity check for Hahn: at t2 the observed pairs exceed
	// the transitive closure of the per-query leakages.
	perQuery := []leakage.PairSet{
		leakage.PerQueryLeakage(teams, employees, queries[0]),
		leakage.PerQueryLeakage(teams, employees, queries[1]),
	}
	hahn := leakage.HahnLeakage(teams, employees, queries)
	fmt.Printf("Hahn et al. leak super-additively: %v\n",
		leakage.IsSuperAdditive(hahn[len(hahn)-1], perQuery))
	sj := leakage.SecureJoinLeakage(teams, employees, queries)
	fmt.Printf("Secure Join leaks super-additively: %v\n",
		leakage.IsSuperAdditive(sj[len(sj)-1], perQuery))
	fmt.Println()

	// Cross-check the simulator against the real encrypted engine.
	fmt.Println("Cross-check with the real encrypted engine:")
	observed, err := runRealEngine()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  engine observed closure: %d pairs\n", observed.Len())
	for _, p := range observed.Sorted() {
		fmt.Printf("    %v == %v\n", p.A, p.B)
	}
	expected := sj[len(sj)-1]
	fmt.Printf("  simulator prediction matches engine: %v\n", observed.Equal(expected))
}

func printTimeline(name string, sets []leakage.PairSet) {
	fmt.Printf("%-22s", name)
	for _, s := range sets {
		fmt.Printf(" %4d", s.Len())
	}
	fmt.Println()
}

func runRealEngine() (leakage.PairSet, error) {
	client, err := engine.NewClient(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		return nil, err
	}
	server := engine.NewServer()

	teams := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database")}},
	}
	employees := []engine.PlainRow{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Programmer")}},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Tester")}},
	}
	encT, err := client.EncryptTable("Teams", teams)
	if err != nil {
		return nil, err
	}
	encE, err := client.EncryptTable("Employees", employees)
	if err != nil {
		return nil, err
	}
	server.Upload(encT)
	server.Upload(encE)

	for _, sel := range [][2]string{{"Web Application", "Tester"}, {"Database", "Programmer"}} {
		q, err := client.NewQuery(
			securejoin.Selection{0: [][]byte{[]byte(sel[0])}},
			securejoin.Selection{0: [][]byte{[]byte(sel[1])}},
		)
		if err != nil {
			return nil, err
		}
		stream, err := server.OpenJoin("Teams", "Employees", engine.JoinSpec{Query: q})
		if err != nil {
			return nil, err
		}
		if _, _, err := stream.Drain(); err != nil {
			return nil, err
		}
	}

	_, closure := server.ObservedLeakage()
	return closure, nil
}
