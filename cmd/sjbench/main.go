// Command sjbench regenerates the figures of the paper's evaluation
// (Section 6) as printed series:
//
//	sjbench -fig 2            # Fig. 2: crypto micro-benchmarks vs IN-clause size
//	sjbench -fig 3            # Fig. 3: join runtime vs TPC-H scale factor
//	sjbench -fig 4            # Fig. 4: join runtime vs IN-clause size
//	sjbench -fig comparison   # Sec. 6.5: Secure Join vs Hahn et al.
//	sjbench -fig all
//
// Figures 3, 4 and the comparison time engine.OpenJoin + Drain — the
// join path the system runs — with SSE-prefiltered queries on one
// SJ.Dec worker, so the seconds are per core. System numbers (wire,
// planner, jobs, store) come from `bash benchmark/run.sh`, kernel
// micro-benchmarks from `go test -bench` in internal/bn256 and
// internal/securejoin.
//
// The pairing here is Go, with assembly only for the amd64 field
// multiplications, and is slower than the authors' C library, so by
// default the TPC-H scale factors are divided by -scalediv (100). Run
// with -scalediv 1 for paper-scale row counts.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/tpch"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2, 3, 4, comparison, all")
	scaleDiv := flag.Float64("scalediv", 100, "divide the paper's TPC-H scale factors by this factor")
	reps := flag.Int("reps", 3, "repetitions per Figure 2 measurement")
	seed := flag.Int64("seed", 42, "dataset generator seed")
	flag.Parse()

	figures := []struct {
		name string
		run  func() error
	}{
		{"2", func() error { return fig2(*reps) }},
		{"3", func() error { return fig3(*scaleDiv, *seed) }},
		{"4", func() error { return fig4(*scaleDiv, *seed) }},
		{"comparison", func() error { return comparison(*scaleDiv, *seed) }},
	}
	known := false
	for _, f := range figures {
		if *fig != f.name && *fig != "all" {
			continue
		}
		known = true
		if err := f.run(); err != nil {
			fmt.Fprintln(os.Stderr, "sjbench:", err)
			os.Exit(1)
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func fig2(reps int) error {
	fmt.Println("== Figure 2: crypto operation benchmarks for a single Customers row ==")
	fmt.Println("in_clause_size  tokengen_ms  encrypt_ms  decrypt_ms")
	for t := 1; t <= 10; t++ {
		r, err := bench.MeasureCryptoOps(t, reps)
		if err != nil {
			return err
		}
		fmt.Printf("%14d  %11.2f  %10.2f  %10.2f\n",
			t, ms(r.TokenGen), ms(r.Encrypt), ms(r.Decrypt))
	}
	fmt.Println()
	return nil
}

func fig3(scaleDiv float64, seed int64) error {
	fmt.Printf("== Figure 3: join runtime vs scale factor (scale factors divided by %g) ==\n", scaleDiv)
	fmt.Println("paper_scale  rows_cust  rows_ord  selectivity  server_seconds  matches")
	for _, paperScale := range []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.1} {
		scale := paperScale / scaleDiv
		w, err := bench.BuildWorkload(scale, 1, seed)
		if err != nil {
			return err
		}
		for _, sel := range tpch.Selectivities {
			res, err := w.RunJoin(bench.Selection(sel.Label, 1), true)
			if err != nil {
				return err
			}
			fmt.Printf("%11.2f  %9d  %8d  %11s  %14.3f  %7d\n",
				paperScale, len(w.Dataset.Customers), len(w.Dataset.Orders),
				sel.Label, res.ServerTime.Seconds(), res.Matches)
		}
	}
	fmt.Println()
	return nil
}

func fig4(scaleDiv float64, seed int64) error {
	fmt.Printf("== Figure 4: join runtime vs IN-clause size (paper scale 0.01 / %g) ==\n", scaleDiv)
	fmt.Println("in_clause_size  selectivity  server_seconds  matches")
	scale := 0.01 / scaleDiv
	for t := 1; t <= 10; t++ {
		w, err := bench.BuildWorkload(scale, t, seed)
		if err != nil {
			return err
		}
		for _, sel := range tpch.Selectivities {
			res, err := w.RunJoin(bench.Selection(sel.Label, t), true)
			if err != nil {
				return err
			}
			fmt.Printf("%14d  %11s  %14.3f  %7d\n",
				t, sel.Label, res.ServerTime.Seconds(), res.Matches)
		}
	}
	fmt.Println()
	return nil
}

func comparison(scaleDiv float64, seed int64) error {
	fmt.Printf("== Section 6.5: Secure Join vs Hahn et al. (paper scale 0.01 / %g) ==\n", scaleDiv)
	scale := 0.01 / scaleDiv

	w, err := bench.BuildWorkload(scale, 1, seed)
	if err != nil {
		return err
	}
	ours, err := w.RunJoin(bench.Selection(tpch.Sel100, 1), true)
	if err != nil {
		return err
	}
	n := len(w.Dataset.Customers) + len(w.Dataset.Orders)
	perRow := 0.0
	if ours.RowsDecrypted > 0 {
		perRow = ms(ours.ServerTime) / float64(ours.RowsDecrypted)
	}
	fmt.Printf("secure_join: hash join, O(n): server %.3fs over %d rows, %d through SJ.Dec (%.2f ms/row decryption), %d matches\n",
		ours.ServerTime.Seconds(), n, ours.RowsDecrypted, perRow, ours.Matches)

	hw, err := bench.BuildHahnWorkload(scale, seed)
	if err != nil {
		return err
	}
	hahn := hw.RunServerJoin(tpch.Sel100)
	fmt.Printf("hahn_et_al : nested loop, O(n^2): server %.3fs, %d matches\n",
		hahn.ServerTime.Seconds(), hahn.Matches)

	// Run the same query a second time with fresh randomness: Secure Join
	// repeats the full cost but leaks nothing new; Hahn reuses unwrapped
	// rows (cheaper) at the price of cross-query linkability.
	ours2, err := w.RunJoin(bench.Selection(tpch.Sel100, 1), true)
	if err != nil {
		return err
	}
	hahn2 := hw.RunServerJoin(tpch.Sel100)
	fmt.Printf("second query: secure_join %.3fs (unlinkable), hahn %.3fs (reuses unwrapped tags, linkable)\n",
		ours2.ServerTime.Seconds(), hahn2.ServerTime.Seconds())
	fmt.Println()
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
