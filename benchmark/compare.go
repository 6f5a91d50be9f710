package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// workloadRuns holds the runs of one workload: per metric, one value
// per run, in run order.
type workloadRuns struct {
	Attempted []int                `json:"attempted"`
	Failed    []int                `json:"failed"`
	Metrics   map[string][]float64 `json:"metrics"`
	// Summary is derived from Metrics when the file is written.
	Summary map[string]summary `json:"summary"`
}

// summary condenses a metric's runs. Exact marks a metric whose runs all
// read the same; only counts are expected to be.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Exact  bool    `json:"exact"`
}

// resultFile is what an all-workload invocation stores and -compare
// reads.
type resultFile struct {
	Header    header                   `json:"header"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

func (rf *resultFile) add(workload string, res *runResult) {
	wr := rf.Workloads[workload]
	if wr == nil {
		wr = &workloadRuns{Metrics: map[string][]float64{}, Summary: map[string]summary{}}
		rf.Workloads[workload] = wr
	}
	wr.Attempted = append(wr.Attempted, res.Attempted)
	wr.Failed = append(wr.Failed, res.Failed)
	for name, v := range res.Metrics {
		wr.Metrics[name] = append(wr.Metrics[name], v.Value)
		s := summary{Unit: v.Unit, Median: median(wr.Metrics[name]), Exact: true}
		s.Q1, s.Q3 = s.Median, s.Median
		if vals := wr.Metrics[name]; len(vals) >= 2 {
			s.Q1, _, s.Q3 = quartiles(vals)
			for _, x := range vals {
				s.Exact = s.Exact && x == vals[0]
			}
		}
		wr.Summary[name] = s
	}
}

func (rf *resultFile) write(path string) error {
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// absoluteFloor is the change below which a metric is not called worse
// whatever its relative size: a quarter of a second of set-up is within
// what one slow directory sync costs.
var absoluteFloor = map[string]float64{"setup_s": 0.25}

// verdict is the outcome of judging one metric of one workload.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge applies a metric's bound to two sets of runs. The new median may
// be worse than the old by the bound's share of the old median (and by
// more than the metric's absolute floor, where it has one) before it
// counts as a regression; an exact metric, a count that repeats, may not
// move in the worse direction at all. A change inside the bound is
// unresolved, not unchanged, when either side's own spread exceeds the
// bound: the runs could not have shown a change of that size.
func judge(m metricSpec, exact bool, old, new []float64) verdict {
	worse := median(new) - median(old)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case exact && worse > 0:
		return regressed
	case exact && worse < 0:
		return improved
	case exact:
		return unchanged
	}
	limit := m.Bound * math.Abs(median(old))
	if worse > limit && worse > absoluteFloor[m.Name] {
		return regressed
	}
	if spread(old) > m.Bound || spread(new) > m.Bound {
		return unresolved
	}
	if -worse > limit {
		return improved
	}
	return unchanged
}

func compareFiles(spec *benchSpec, oldPath, newPath string) error {
	old, err := readResults(oldPath)
	if err != nil {
		return err
	}
	new, err := readResults(newPath)
	if err != nil {
		return err
	}
	return compareResults(spec, old, new)
}

// compareResults prints one row per workload and metric and fails on any
// regression or newly failed operation. Per-layer metrics carry no
// bound: they are listed, and only the ones that repeat exactly on both
// sides are judged.
func compareResults(spec *benchSpec, old, new *resultFile) error {
	specs := spec.metrics(old.Header.Traced)
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Printf("%-17s %-38s %14s %14s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "verdict")
	for _, name := range names {
		o, n := old.Workloads[name], new.Workloads[name]
		if n == nil {
			return fmt.Errorf("workload %s is missing from the new results", name)
		}
		if of, nf := sum(o.Failed), sum(n.Failed); nf > of {
			fmt.Printf("%-17s %-38s %14d %14d %8s  %s\n", name, "failed", of, nf, "", regressed)
			regressions++
		}
		for _, m := range specs {
			ov, nv := o.Metrics[m.Name], n.Metrics[m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				return fmt.Errorf("%s: metric %s is missing from one side", name, m.Name)
			}
			exact := o.Summary[m.Name].Exact && n.Summary[m.Name].Exact && len(ov) > 1 && len(nv) > 1
			v := verdict("-")
			if m.Bound > 0 || exact {
				v = judge(m, exact, ov, nv)
			}
			if v == regressed {
				regressions++
			}
			change := "n/a"
			if mo := median(ov); mo != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(nv)-mo)/math.Abs(mo))
			}
			fmt.Printf("%-17s %-38s %14.4f %14.4f %8s  %s\n", name, m.Name, median(ov), median(nv), change, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
