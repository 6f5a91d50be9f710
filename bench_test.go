package repro

// One benchmark per table/figure of the paper's evaluation (Section 6),
// plus the ablation benches called out in DESIGN.md. Workload sizes are
// kept small so `go test -bench=.` terminates on a laptop; cmd/sjbench
// runs the same series at configurable scale and prints the figures'
// rows. See EXPERIMENTS.md for paper-vs-measured comparisons.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/securejoin"
	"repro/internal/tpch"
	"repro/internal/zq"
)

// benchScale returns the TPC-H scale factor used by the join benches.
// Default is 1/100 of the paper's smallest point; override with
// SJ_BENCH_SCALE.
func benchScale(b *testing.B) float64 {
	if s := os.Getenv("SJ_BENCH_SCALE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			b.Fatalf("invalid SJ_BENCH_SCALE: %v", err)
		}
		return v
	}
	return 0.0001
}

// --- Figure 2: crypto micro-benchmarks vs IN-clause size -------------

func fig2Scheme(b *testing.B, t int) (*securejoin.Scheme, securejoin.Row, securejoin.Selection) {
	b.Helper()
	scheme, err := securejoin.Setup(securejoin.Params{M: 1, T: t}, nil)
	if err != nil {
		b.Fatal(err)
	}
	row := securejoin.Row{JoinValue: []byte("42"), Attrs: [][]byte{[]byte(tpch.Sel100)}}
	values := make([][]byte, t)
	for i := range values {
		values[i] = []byte(fmt.Sprintf("v-%d", i))
	}
	return scheme, row, securejoin.Selection{0: values}
}

func BenchmarkFig2TokenGen(b *testing.B) {
	for _, t := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			scheme, _, sel := fig2Scheme(b, t)
			k := mustKey(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scheme.TokenGen(k, sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig2Encrypt(b *testing.B) {
	for _, t := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			scheme, row, _ := fig2Scheme(b, t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scheme.Encrypt(row); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig2Decrypt(b *testing.B) {
	for _, t := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			scheme, row, sel := fig2Scheme(b, t)
			q, err := scheme.NewQuery(sel, sel)
			if err != nil {
				b.Fatal(err)
			}
			ct, err := scheme.Encrypt(row)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := securejoin.Decrypt(q.TokenA, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 3: server join runtime vs table size ---------------------

func BenchmarkFig3JoinScale(b *testing.B) {
	base := benchScale(b)
	for _, mult := range []int{1, 2, 4} {
		scale := base * float64(mult)
		w, err := bench.BuildWorkload(scale, 1, 42)
		if err != nil {
			b.Fatal(err)
		}
		// The two densest selectivity classes stay non-empty even at the
		// small default bench scale (1/100 of a table of 60 rows is 0).
		for _, sel := range []string{tpch.Sel25, tpch.Sel12_5} {
			name := fmt.Sprintf("rows=%d/sel=%s", len(w.Dataset.Customers)+len(w.Dataset.Orders), sel)
			b.Run(name, func(b *testing.B) {
				s := bench.Selection(sel, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.RunServerJoin(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 4: server join runtime vs IN-clause size -----------------

func BenchmarkFig4JoinINClause(b *testing.B) {
	scale := benchScale(b)
	for _, t := range []int{1, 5, 10} {
		w, err := bench.BuildWorkload(scale, t, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			s := bench.Selection(tpch.Sel100, t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.RunServerJoin(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 6.5: comparison against Hahn et al. ---------------------

func BenchmarkComparisonHahnNestedLoop(b *testing.B) {
	scale := benchScale(b)
	b.Run("hahn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, err := bench.BuildHahnWorkload(scale, 42)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			w.RunServerJoin(tpch.Sel100)
		}
	})
	b.Run("securejoin", func(b *testing.B) {
		w, err := bench.BuildWorkload(scale, 1, 42)
		if err != nil {
			b.Fatal(err)
		}
		s := bench.Selection(tpch.Sel100, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.RunServerJoin(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Tables 1-4: the worked example -----------------------------------

func BenchmarkExampleQueries(b *testing.B) {
	scheme, err := securejoin.Setup(securejoin.Params{M: 1, T: 2}, nil)
	if err != nil {
		b.Fatal(err)
	}
	teams := []securejoin.Row{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Web Application")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Database")}},
	}
	employees := []securejoin.Row{
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Programmer")}},
		{JoinValue: []byte("1"), Attrs: [][]byte{[]byte("Tester")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Programmer")}},
		{JoinValue: []byte("2"), Attrs: [][]byte{[]byte("Tester")}},
	}
	ctA, err := scheme.EncryptTable(teams)
	if err != nil {
		b.Fatal(err)
	}
	ctB, err := scheme.EncryptTable(employees)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := scheme.NewQuery(
			securejoin.Selection{0: [][]byte{[]byte("Web Application")}},
			securejoin.Selection{0: [][]byte{[]byte("Tester")}},
		)
		if err != nil {
			b.Fatal(err)
		}
		das, err := securejoin.DecryptTable(q.TokenA, ctA)
		if err != nil {
			b.Fatal(err)
		}
		dbs, err := securejoin.DecryptTable(q.TokenB, ctB)
		if err != nil {
			b.Fatal(err)
		}
		if pairs := securejoin.HashJoin(das, dbs); len(pairs) != 1 {
			b.Fatalf("expected 1 match, got %d", len(pairs))
		}
	}
}

// --- Ablation: hash join vs nested loop on precomputed D values ------

func BenchmarkHashVsNestedLoop(b *testing.B) {
	// The match phase operates on opaque 384-byte D values, so the join
	// algorithms can be benchmarked at realistic sizes with synthetic
	// values (matching distribution: ~10% of rows share a join key).
	synth := func(n, universe int) []securejoin.DValue {
		out := make([]securejoin.DValue, n)
		for i := range out {
			v := make([]byte, 384)
			v[0] = byte(i % universe)
			v[1] = byte((i % universe) >> 8)
			out[i] = v
		}
		return out
	}
	for _, n := range []int{100, 400, 1600} {
		da := synth(n, n/10+1)
		db := synth(n, n/10+1)
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				securejoin.HashJoin(da, db)
			}
		})
		b.Run(fmt.Sprintf("nestedloop/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				securejoin.NestedLoopJoin(da, db)
			}
		})
	}
}

// --- Ablation: pre-filter and parallel decryption ---------------------

func BenchmarkPrefilterVsFullScan(b *testing.B) {
	w, err := bench.BuildWorkload(benchScale(b)*4, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	sel := bench.Selection(tpch.Sel12_5, 1)
	b.Run("fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.RunServerJoinFullScan(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prefiltered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.RunServerJoin(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prefiltered-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.RunServerJoinParallel(sel, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: baseline scheme costs ----------------------------------

func BenchmarkBaselineDetJoin(b *testing.B) {
	det, err := baseline.NewDetScheme(nil)
	if err != nil {
		b.Fatal(err)
	}
	ds := tpch.Generate(benchScale(b), 42)
	joinC := make([][]byte, len(ds.Customers))
	for i, c := range ds.Customers {
		joinC[i] = tpch.CustomerJoinValue(c)
	}
	joinO := make([][]byte, len(ds.Orders))
	for i, o := range ds.Orders {
		joinO[i] = tpch.OrderJoinValue(o)
	}
	tagsC := det.EncryptColumn(joinC)
	tagsO := det.EncryptColumn(joinO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Join(tagsC, tagsO)
	}
}

// --- Concurrent joins: engine.Server under parallel query load -------

// concurrentJoinFixture uploads two joinable tables to a fresh engine
// server and pre-issues a query so the benchmark times only the
// server-side OpenJoin + Drain.
func concurrentJoinFixture(b *testing.B, rows int) (*engine.Server, *securejoin.Query) {
	b.Helper()
	cli, err := engine.NewClient(securejoin.Params{M: 1, T: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	srv := engine.NewServer()
	mk := func(prefix string) []engine.PlainRow {
		out := make([]engine.PlainRow, rows)
		for i := range out {
			out[i] = engine.PlainRow{
				JoinValue: []byte(fmt.Sprintf("k-%d", i)),
				Attrs:     [][]byte{[]byte("x")},
				Payload:   []byte(fmt.Sprintf("%s-%d", prefix, i)),
			}
		}
		return out
	}
	for _, name := range []string{"L", "R"} {
		t, err := cli.EncryptTable(name, mk(name))
		if err != nil {
			b.Fatal(err)
		}
		srv.Upload(t)
	}
	q, err := cli.NewQuery(securejoin.Selection{}, securejoin.Selection{})
	if err != nil {
		b.Fatal(err)
	}
	return srv, q
}

// BenchmarkConcurrentJoins measures drained-join throughput over shared
// read-only tables as parallelism grows. The table store takes only a
// read lock per query, so ns/op should drop roughly linearly with
// GOMAXPROCS until the cores saturate — the joins are genuinely
// parallel, not serialized behind a global engine lock.
func BenchmarkConcurrentJoins(b *testing.B) {
	srv, q := concurrentJoinFixture(b, 8)
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					st, err := srv.OpenJoin("L", "R", engine.JoinSpec{Query: q})
					if err == nil {
						_, _, err = st.Drain()
					}
					if err != nil {
						b.Error(err) // Fatal must not run on a RunParallel worker
						return
					}
				}
			})
		})
	}
}

// BenchmarkJoinStreamVsMaterialize contrasts draining a bounded-batch
// JoinStream against the materializing Drain. With -benchmem the
// streamed variant's allocations stay flat in the batch size while the
// one-shot path scales with the full result cardinality.
func BenchmarkJoinStreamVsMaterialize(b *testing.B) {
	srv, q := concurrentJoinFixture(b, 16)
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := srv.OpenJoin("L", "R", engine.JoinSpec{Query: q})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := srv.OpenJoin("L", "R", engine.JoinSpec{Query: q, Batch: 4})
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := st.Next(); err != nil {
					if err == io.EOF {
						break
					}
					b.Fatal(err)
				}
			}
		}
	})
}

func mustKey(b *testing.B) zq.Scalar {
	b.Helper()
	k, err := zq.RandomNonZero(nil)
	if err != nil {
		b.Fatal(err)
	}
	return k
}
