// Command benchmark is the repository's benchmark: it drives the real
// system — a server on loopback, a client connection, the SQL planner —
// through four workloads, checks every result against a plaintext
// oracle, and prints the metrics BENCHMARK.json declares. README.md in
// this directory explains the workloads and metrics.
//
//	bash benchmark/run.sh --workload scan_cold --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 42                 # every workload, end to end
//	bash benchmark/run.sh -seed 42 -trace 1        # every workload, per layer
//	bash benchmark/run.sh -sets 2 -runs 3          # do two sets of runs agree?
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	runs     int
	sets     int
	out      string
	compare  bool
	args     []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run once, printing its result as the last line (empty: all of them, -runs times)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the generated data")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one run measures (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload when running all of them")
	flag.IntVar(&o.sets, "sets", 1, "sets of -runs runs; with 2 or more, the sets are compared and disagreement fails")
	flag.StringVar(&o.out, "out", "", "file for the results of an all-workload invocation (default benchmark/out/results.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments: old.json new.json")
	flag.Parse()
	o.traced, o.args = *trace == 1, flag.Args()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two result files: old.json new.json")
		}
		return compareFiles(spec, o.args[0], o.args[1])
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available: workers would time-slice and the timings mean nothing", procs, cpus)
	}
	if o.runs < 1 || o.sets < 1 {
		return fmt.Errorf("-runs and -sets must be at least 1")
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{outDir: outDir, seed: o.seed, seconds: o.seconds, setupReps: defaultSetupReps, spec: spec}
	workloads := fullSize.workloads()
	head := newHeader(o)
	head.print(workloads)

	// One workload, once: the result line is the last thing printed, and
	// failed operations are reported in it, not by the exit code.
	if o.workload != "" {
		for _, w := range workloads {
			if w.name != o.workload {
				continue
			}
			res, err := runOne(w, cfg, o.traced)
			if err != nil {
				return err
			}
			printResult(os.Stdout, w.name, spec.metrics(o.traced), res)
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			return nil
		}
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	if o.out == "" {
		o.out = filepath.Join(outDir, "results.json")
	}
	var files []*resultFile
	failed := 0
	for s := 0; s < o.sets; s++ {
		rf := &resultFile{Header: head, Workloads: map[string]*workloadRuns{}}
		for _, w := range workloads {
			for r := 0; r < o.runs; r++ {
				res, err := runOne(w, cfg, o.traced)
				if err != nil {
					return err
				}
				printResult(os.Stdout, w.name, spec.metrics(o.traced), res)
				rf.add(w.name, res)
				failed += res.Failed
			}
		}
		path := o.out
		if o.sets > 1 {
			path = strings.TrimSuffix(path, ".json") + fmt.Sprintf("-set%d.json", s+1)
		}
		if err := rf.write(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "results written to", path)
		files = append(files, rf)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	for _, rf := range files[1:] {
		if err := compareResults(spec, files[0], rf); err != nil {
			return err
		}
	}
	return nil
}

func runOne(w *workload, cfg runConfig, traced bool) (*runResult, error) {
	if traced {
		return runTraced(w, cfg)
	}
	return runEndToEnd(w, cfg)
}

// printResult lists a run's metrics by name with their units.
func printResult(out io.Writer, workload string, specs []metricSpec, res *runResult) {
	for _, m := range specs {
		fmt.Fprintf(out, "%-17s %-38s %14.4f %s\n", workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(out, "%-17s %-38s %14d of %d\n", workload, "failed", res.Failed, res.Attempted)
}

// header records where and how a set of numbers was taken.
type header struct {
	When       string  `json:"when"`
	CPUs       int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      string  `json:"load_1m_at_start"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_run"`
	Traced     bool    `json:"traced"`
	SetupReps  int     `json:"setups_per_run"`
}

func newHeader(o options) header {
	h := header{
		When: time.Now().UTC().Format(time.RFC3339), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown", Load1: "unknown",
		Seed: o.seed, Seconds: o.seconds, Traced: o.traced, SetupReps: defaultSetupReps,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.Load1, _, _ = strings.Cut(string(raw), " ")
	}
	// run.sh exports the commit where the checkout is a git repository;
	// the benchmark driver's is not.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	return h
}

func (h header) print(workloads []*workload) {
	fmt.Fprintf(os.Stderr, "machine: %d CPUs (%s), GOMAXPROCS %d, %s, commit %s, load %s\n",
		h.CPUs, h.CPUModel, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Load1)
	fmt.Fprintf(os.Stderr, "run: seed %d, %.0fs measured per run, traced=%v, %d set-ups per run, closed loop on one connection, tail = p%g\n",
		h.Seed, h.Seconds, h.Traced, h.SetupReps, tailPercentile)
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "  %-17s M=%d T=%d scale %g, %d warm-up operations, windows of %d\n",
			w.name, w.params.M, w.params.T, w.scale, w.warmup, w.window)
	}
}
