package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSetupReps is how often a run sets the workload up; setup_s is
// the median, so one slow disk sync or scheduling hiccup does not
// decide it.
const defaultSetupReps = 3

// tailPercentile is where op_tail_ms is read. The guide's rule is the
// highest percentile with ten samples beyond it; a run holds about 60
// operations of the slow workloads, which supports p75. It is one
// constant for every workload and run, so the metric keeps its meaning
// when a change makes operations faster or slower.
const tailPercentile = 75.0

// heapReadings is how many consecutive windows live_heap_mb is read
// after.
const heapReadings = 3

// runConfig is what one invocation fixes for every run it makes.
type runConfig struct {
	outDir    string // benchmark/out under the checkout: results and data directories
	seed      int64
	seconds   float64
	setupReps int
	spec      *benchSpec
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB is the heap still reachable after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle finishes what the first one's sweep freed
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// stealStretch is the shortest stretch of a run whose stolen time is
// worth reading: /proc/stat counts in ticks of 10 ms.
const stealStretch = 200 * time.Millisecond

// minGranted bounds the correction a reading may make. Tick rounding can
// report more stolen time than a short stretch lasted.
const minGranted = 0.25

// minWindowGranted is the share of a window's time the hypervisor must
// have granted for the window to count. Taking stolen time out repairs a
// run that lost a tenth or a fifth of its time; in the phases where the
// host withholds half of it, threads wait on each other's stolen time
// and what remains after the correction is still 1.4 times slower than
// the same binary on a quiet host.
const minWindowGranted = 0.8

// minWindows is the least number of undisturbed windows a run's metrics
// may rest on; with fewer, every window counts.
const minWindows = 5

// window is one cycle of timed operations.
type window struct {
	from              int     // index of its first operation
	opsPerS, cpuPerOp float64 // over the window
	granted           float64 // share of its wall time the hypervisor granted
}

// undisturbed returns the windows that count: those the hypervisor
// granted minWindowGranted of their time, or all of them when that
// leaves fewer than minWindows.
func undisturbed(all []window) []window {
	var kept []window
	for _, win := range all {
		if win.granted >= minWindowGranted {
			kept = append(kept, win)
		}
	}
	if len(kept) < minWindows {
		return all
	}
	return kept
}

// hostClock tells how much of a stretch of wall time the hypervisor
// withheld from this virtual machine. The box the benchmark runs on
// shares its processors with other tenants, and for minutes at a time
// its vCPUs are runnable but not run for a fifth of the time ("steal" in
// /proc/stat): the same binary then measures 1.5 to 1.9 times slower,
// which no bound could tell from a regression. Stolen time is the one
// part of that disturbance the kernel reports, so timings are taken
// with it removed. Where /proc/stat has no steal column, nothing is
// removed.
type hostClock struct {
	at          time.Time
	busy, steal time.Duration // summed over the vCPUs, since boot
}

func startHostClock() *hostClock {
	c := &hostClock{at: time.Now()}
	c.busy, c.steal = hostTicks()
	return c
}

// running is the wall time since the clock was started or last lapped.
func (c *hostClock) running() time.Duration { return time.Since(c.at) }

// lap returns the wall time since the clock was started or last lapped
// and the share of it the hypervisor granted; then it restarts the clock.
func (c *hostClock) lap() (wall time.Duration, granted float64) {
	now := time.Now()
	busy, steal := hostTicks()
	wall, granted = now.Sub(c.at), grantedShare(now.Sub(c.at), busy-c.busy, steal-c.steal)
	c.at, c.busy, c.steal = now, busy, steal
	return wall, granted
}

// grantedShare is the share of a stretch of wall time that remains once
// the delay its stolen time caused is taken out. busy and steal are
// summed over the vCPUs. Stolen time delays a stretch in which one
// thread at a time wants a processor by its full length, and one in
// which p threads share the work by about a p-th of it, so the sum is
// divided by the stretch's average parallelism: the processor time
// wanted (run plus stolen) over the wall time, and never less than one,
// so that idle time in the stretch is not scaled.
func grantedShare(wall, busy, steal time.Duration) float64 {
	if steal <= 0 || wall <= 0 {
		return 1
	}
	parallel := max(1, float64(busy+steal)/float64(wall))
	return max(minGranted, 1-float64(steal)/parallel/float64(wall))
}

// hostTicks reads the machine-wide line of /proc/stat: the time its
// vCPUs spent running anything (user, nice, system, irq, softirq) and
// the time they were runnable but the hypervisor ran something else.
func hostTicks() (busy, steal time.Duration) {
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	at := func(i int) time.Duration {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		return time.Duration(n) * tick
	}
	return at(1) + at(2) + at(3) + at(6) + at(7), at(8)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupRepeated sets the workload up reps times, tearing down all but
// the last instance, and returns that instance with every set-up time.
func (w *workload) setupRepeated(cfg runConfig, reps int) (*env, []float64, error) {
	var e *env
	var times []float64
	for r := 0; r < reps; r++ {
		if e != nil {
			e.close()
		}
		clock := startHostClock()
		var err error
		if e, err = w.setup(cfg.outDir, cfg.seed); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		wall, granted := clock.lap()
		times = append(times, wall.Seconds()*granted)
	}
	e.oracle()
	return e, times, nil
}

// limitProcs applies the workload's GOMAXPROCS, if it sets one, and
// returns the call that restores the previous value.
func (w *workload) limitProcs() (restore func()) {
	if w.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(w.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// warm runs and checks the discarded warm-up operations. A failure here
// is a failure of the run, not a sample.
func (e *env) warm() error {
	for i := 0; i < e.w.warmup; i++ {
		r, err := e.w.op(e, i)
		if err == nil {
			err = check(r)
		}
		if err != nil {
			return fmt.Errorf("%s warm-up operation %d: %w", e.w.name, i, err)
		}
	}
	return nil
}

// runEndToEnd measures one workload with tracing off: a closed loop of
// operations on one connection for cfg.seconds, every result checked
// against the oracle after its clock has stopped.
func runEndToEnd(w *workload, cfg runConfig) (*runResult, error) {
	e, setups, err := w.setupRepeated(cfg, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	defer e.close()
	defer w.limitProcs()()
	if err := e.warm(); err != nil {
		return nil, err
	}

	// Operations are timed singly for the latency percentiles and in
	// windows for throughput and CPU: a neighbour on the host disturbs
	// the processor in bursts, and a median over windows shrugs off the
	// bursts a mean over the run would carry. Every latency is then
	// scaled by the share of its stretch of the run that the hypervisor
	// did not withhold (see hostClock); a stretch is the operations since
	// the last reading, closed once it is stealStretch long, because the
	// kernel counts stolen time in ticks of 10 ms.
	var lat, raw, heaps []float64
	var windows []window
	failed, adjusted := 0, 0
	stretch := startHostClock()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for start := time.Now(); time.Since(start) < budget; {
		cpu0, whole := cpuTime(), startHostClock()
		win := window{from: len(lat)}
		for j := 0; j < w.window; j++ {
			opStart := time.Now()
			r, err := w.op(e, w.warmup+len(lat))
			lat = append(lat, ms(time.Since(opStart)))
			if j == w.window-1 || stretch.running() >= stealStretch {
				_, granted := stretch.lap()
				for ; adjusted < len(lat); adjusted++ {
					raw = append(raw, lat[adjusted])
					lat[adjusted] *= granted
				}
			}
			if err == nil {
				err = check(r)
			}
			if err != nil {
				if failed++; failed <= 3 {
					fmt.Fprintf(os.Stderr, "%s operation %d failed: %v\n", w.name, len(lat)-1, err)
				}
			}
		}
		_, win.granted = whole.lap()
		inOps := 0.0
		for _, l := range lat[win.from:] {
			inOps += l
		}
		win.opsPerS = float64(w.window) / (inOps / 1000)
		win.cpuPerOp = ms(cpuTime()-cpu0) / float64(w.window)
		windows = append(windows, win)
		// Between windows, so the collections cost no operation: the
		// heap after heapAtOp operations and after each of the next two
		// windows. The least of the three is what is retained; the
		// others hold a buffer that happened to be in flight.
		if n := len(lat); n >= w.heapAtOp && len(heaps) < heapReadings {
			heaps = append(heaps, liveHeapMiB())
			stretch.lap() // the collections are no part of the next stretch
		}
	}
	attempted := len(lat)
	kept := undisturbed(windows)
	if len(kept) < len(windows) {
		fmt.Fprintf(os.Stderr, "%s: %d of %d windows set aside, the hypervisor withheld more than %.0f%% of their time\n",
			w.name, len(windows)-len(kept), len(windows), 100*(1-minWindowGranted))
	}
	var keptLat, opsPerS, cpuPerOp []float64
	for _, win := range kept {
		keptLat = append(keptLat, lat[win.from:win.from+w.window]...)
		opsPerS = append(opsPerS, win.opsPerS)
		cpuPerOp = append(cpuPerOp, win.cpuPerOp)
	}
	lat = keptLat
	if len(heaps) == 0 {
		fmt.Fprintf(os.Stderr, "%s: only %d operations ran, live_heap_mb read after the last instead of after operation %d\n",
			w.name, attempted, w.heapAtOp)
		heaps = append(heaps, liveHeapMiB())
	}
	if beyond := float64(len(lat)) * (100 - tailPercentile) / 100; beyond < 10 {
		fmt.Fprintf(os.Stderr, "%s: op_tail_ms is p%g with %.1f of %d samples beyond it; p%g is the highest with ten\n",
			w.name, tailPercentile, beyond, len(lat), highestSupportedPercentile(len(lat)))
	}

	if w.restarts {
		a, f := e.recover()
		attempted, failed = attempted+a, failed+f
	}
	values := map[string]float64{
		"setup_s":       median(setups),
		"op_p50_ms":     percentile(lat, 50),
		"op_tail_ms":    percentile(lat, tailPercentile),
		"ops_per_s":     median(opsPerS),
		"cpu_ms_per_op": median(cpuPerOp),
		"live_heap_mb":  slices.Min(heaps),
	}
	fmt.Fprintf(os.Stderr, "%s: %d set-ups %.3fs, %d warm-up + %d timed operations in %d windows of %.4g to %.4g ops/s; op_p50_ms before stolen time was taken out %.4g\n",
		w.name, len(setups), setups, w.warmup, attempted, len(windows), slices.Min(opsPerS), slices.Max(opsPerS), median(raw))
	return newRunResult(cfg.spec.EndToEnd, values, attempted, failed)
}
