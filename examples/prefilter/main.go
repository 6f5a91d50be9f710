// Pre-filter example: quantifies the SSE pre-filter of Section 4.3 on
// one workload — the same engine join with JoinSpec.Prefilter unset or
// set, on one SJ.Dec worker. Resolving the selection predicates through
// a searchable index first means SJ.Dec runs over selectivity*n
// candidate rows instead of n — at the cost of also revealing which
// rows match each individual attribute predicate.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/tpch"
)

func main() {
	fmt.Println("building encrypted TPC-H workload (scale 0.001: 150 customers, 1500 orders)...")
	w, err := bench.BuildWorkload(0.001, 1, 11)
	if err != nil {
		log.Fatal(err)
	}
	sel := bench.Selection(tpch.Sel25, 1)

	full, err := w.RunJoin(sel, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full scan        : %8.2fs  (%d matches, %d pairs revealed) — leakage-optimal, SJ.Dec on every row\n",
		full.ServerTime.Seconds(), full.Matches, full.RevealedPairs)

	pre, err := w.RunJoin(sel, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSE pre-filter   : %8.2fs  (%d matches, %d pairs revealed) — SJ.Dec only on selection-matching rows\n",
		pre.ServerTime.Seconds(), pre.Matches, pre.RevealedPairs)

	if pre.Matches != full.Matches {
		log.Fatalf("the pre-filter changed the result: %d/%d", full.Matches, pre.Matches)
	}
	fmt.Println("\nboth paths returned identical join results")
	fmt.Println("(the pre-filter trades SSE access-pattern leakage for the speedup;")
	fmt.Println(" see internal/engine/prefilter.go for the exact statement)")
}
