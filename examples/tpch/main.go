// TPC-H workload example: generates a small Orders x Customers instance
// with the paper's selectivity column, encrypts it, runs one join query
// per selectivity class and reports server-side timings — a miniature of
// the Figure 3 experiment on sjbench's fixture.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/tpch"
)

func main() {
	scale := flag.Float64("scale", 0.0002, "TPC-H scale factor (0.0002 = 30 customers, 300 orders)")
	flag.Parse()

	fmt.Printf("building encrypted TPC-H workload at scale %g...\n", *scale)
	w, err := bench.BuildWorkload(*scale, 1, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encrypted %d customers and %d orders\n\n",
		len(w.Dataset.Customers), len(w.Dataset.Orders))

	fmt.Println("SELECT * FROM Orders JOIN Customers ON custkey WHERE selectivity IN (s):")
	for _, sel := range tpch.Selectivities {
		res, err := w.RunJoin(bench.Selection(sel.Label, 1), true, bench.PerCore)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  s = %-7s  server time %8.3fs  %5d matches\n",
			sel.Label, res.ServerTime.Seconds(), res.Matches)
	}
}
