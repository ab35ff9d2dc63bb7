// Command wabench is the repository benchmark. It runs one workload — the
// full DES prototype on paper Workload 1 (paper-w1), the prototype with
// both storage planes on Workload 2 (w2-storage), or the trace replayer on
// the 120k-job archive trace (replay-120k) — repeatedly for a fixed host
// time, checks every run's schedule, and prints its metrics as the last
// line of standard output, one JSON object.
//
//	wabench --workload paper-w1 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of plain runs. With
// --trace 1 it alternates traced and plain runs and adds one profiled run,
// and reports the per-layer metrics. README.md records why each workload
// was chosen and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of plain runs, as a user of the program sees
// them. Host time and simulated time are never mixed in one metric.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s"},
	{"setup_s", "s"},
	{"alloc_mib", "MiB"},
	{"live_heap_mib", "MiB"},
	{"sim_makespan_s", "sim_s"},
	{"sim_mean_wait_s", "sim_s"},
	{"completed_share", "share"},
}

// perLayer are the metrics of traced and profiled runs. A workload that
// does not run a layer reports zero for it.
var perLayer = []metricDef{
	{"des.events", "count"},
	{"des.ns_per_event", "ns"},
	{"des.other.s", "s"},
	{"ldms.flush.count", "count"},
	{"ldms.flush.s", "s"},
	{"ldms.flush.p50_us", "us"},
	{"ldms.flush.p99_us", "us"},
	{"ldms.sample.count", "count"},
	{"ldms.sample.s", "s"},
	{"sos.retained_records", "count"},
	{"analytics.current_throughput.p50_us", "us"},
	{"analytics.current_throughput.p99_us", "us"},
	{"slurm.rounds", "count"},
	{"slurm.round.s", "s"},
	{"slurm.round.p50_us", "us"},
	{"slurm.round.p99_us", "us"},
	{"slurm.round_self.s", "s"},
	{"sched.new_round.count", "count"},
	{"sched.new_round.s", "s"},
	{"sched.earliest_start.count", "count"},
	{"sched.earliest_start.s", "s"},
	{"sched.reserve.count", "count"},
	{"sched.reserve.s", "s"},
	{"pfs.recomputes", "count"},
	{"pfs.step.s", "s"},
	{"tbf.ticks", "count"},
	{"tbf.tick.s", "s"},
	{"bb.deferred", "count"},
	{"bb.drained_gib", "GiB"},
	{"schedcheck.rounds", "count"},
	{"schedcheck.us_per_round", "us"},
	{"workload.parse_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"cpu_share.restrack", "share"},
	{"cpu_share.sched", "share"},
	{"cpu_share.schedcheck", "share"},
	{"cpu_share.slurm", "share"},
	{"cpu_share.ldms", "share"},
	{"cpu_share.sos", "share"},
	{"cpu_share.analytics", "share"},
	{"cpu_share.pfs", "share"},
	{"cpu_share.des", "share"},
	{"cpu_share.tbf", "share"},
	{"cpu_share.bb", "share"},
	{"cpu_self.restrack", "share"},
	{"cpu_self.sched", "share"},
	{"cpu_self.schedcheck", "share"},
	{"cpu_self.slurm", "share"},
	{"cpu_self.ldms", "share"},
	{"cpu_self.sos", "share"},
	{"cpu_self.analytics", "share"},
	{"cpu_self.pfs", "share"},
	{"cpu_self.des", "share"},
	{"cpu_self.tbf", "share"},
	{"cpu_self.bb", "share"},
	{"trace.traced_jobs_per_s", "jobs/s"},
	{"trace.untraced_jobs_per_s", "jobs/s"},
}

// Run counts per invocation. Plain runs repeat while the time budget
// lasts, but at least minRuns times. Set-up is then repeated, without
// running, for setupBudget and until there are minSetups set-up times to
// take the median of: a DES set-up takes milliseconds, and 15 of them
// would all fall into one short stretch of the host's speed.
const (
	minRuns     = 3
	minSetups   = 15
	setupBudget = time.Second
)

const mib = 1 << 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-w1, w2-storage or replay-120k")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from traced and profiled runs")
	flag.Parse()
	if !slices.Contains(workloadNames, *name) || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	// The simulator runs on one goroutine. With more than one P, the GC's
	// idle mark workers fill the other Ps for as long as a cycle lasts, and
	// that CPU time, which depends on what else the machine runs, would be
	// counted in the run's host time.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = benchTraced(*name, *seed, budget)
	} else {
		res, err = benchPlain(*name, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wabench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wabench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOnce makes one set-up and run of the workload.
func runOnce(name string, seed uint64, m mode, profPath string) (run, error) {
	if name == replay120k {
		return runReplay(seed, m, profPath)
	}
	return runDES(name, seed, m, profPath)
}

// setupOnce makes one set-up of the workload and discards it.
func setupOnce(name string, seed uint64) (time.Duration, error) {
	if name == replay120k {
		_, r, err := setupReplay(seed)
		return r.setup, err
	}
	_, _, r, err := setupDES(name, seed, nil)
	return r.setup, err
}

// tally checks a set of runs of one workload and seed: every run must
// pass its schedule validation, and all must produce one schedule.
type tally struct {
	out    *result
	digest string
	errs   []error
}

func newTally() *tally {
	return &tally{out: &result{Metrics: make(map[string]metric)}}
}

func (t *tally) add(r run) {
	fmt.Fprintf(os.Stderr, "run: setup %.4fs (wall %.4fs) run %.3fs (wall %.3fs) %.1f jobs/s\n",
		r.setup.Seconds(), r.setupWall.Seconds(), r.exec.Seconds(), r.execWall.Seconds(), r.jobsPerSec())
	t.out.Attempted += r.attempted
	t.out.Failed += r.failed
	if r.violations != nil {
		t.errs = append(t.errs, r.violations)
	}
	switch {
	case t.digest == "":
		t.digest = r.digest
	case t.digest != r.digest:
		t.errs = append(t.errs, fmt.Errorf("schedule digest %s differs from the first run's %s", r.digest, t.digest))
	}
}

func (t *tally) finish(name string, seed uint64) *result {
	fmt.Printf("schedule digest: %s seed %d %s\n", name, seed, t.digest)
	for _, err := range t.errs {
		fmt.Fprintln(os.Stderr, "wabench: check failed:", err)
	}
	t.out.Correct = len(t.errs) == 0
	return t.out
}

func (t *tally) set(def metricDef, v float64) {
	t.out.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	fmt.Printf("%-38s %14.6g %s\n", def.name, v, def.unit)
}

// benchPlain measures the end-to-end metrics.
func benchPlain(name string, seed uint64, budget time.Duration) (*result, error) {
	t := newTally()
	var runs []run
	err := repeat(budget, minRuns, func() error {
		r, err := runOnce(name, seed, plain, "")
		if err != nil {
			return err
		}
		t.add(r)
		runs = append(runs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	setups := collect(runs, func(r run) float64 { return r.setup.Seconds() })
	err = repeat(setupBudget, minSetups-len(setups), func() error {
		d, err := setupOnce(name, seed)
		setups = append(setups, d.Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"jobs_per_s":      median(collect(runs, run.jobsPerSec)),
		"setup_s":         median(setups),
		"alloc_mib":       median(collect(runs, func(r run) float64 { return float64(r.allocBytes) / mib })),
		"live_heap_mib":   median(collect(runs, func(r run) float64 { return float64(r.liveHeap) / mib })),
		"sim_makespan_s":  median(collect(runs, func(r run) float64 { return r.makespan })),
		"sim_mean_wait_s": median(collect(runs, func(r run) float64 { return r.meanWait })),
		"completed_share": float64(t.out.Attempted-t.out.Failed) / float64(t.out.Attempted),
	}
	fmt.Printf("%s seed %d: %d runs, %d set-ups\n", name, seed, len(runs), len(setups))
	for _, def := range endToEnd {
		t.set(def, values[def.name])
	}
	return t.finish(name, seed), nil
}

// benchTraced measures the per-layer metrics: traced runs alternate with
// plain ones, so the tracing overhead is the ratio of their jobs_per_s,
// and one profiled run gives the CPU share per package. All of them must
// produce the same schedule.
func benchTraced(name string, seed uint64, budget time.Duration) (*result, error) {
	t := newTally()
	var tracedRuns, plainRuns []run
	err := repeat(budget, 1, func() error {
		r, err := runOnce(name, seed, traced, "")
		if err != nil {
			return err
		}
		t.add(r)
		tracedRuns = append(tracedRuns, r)
		if r, err = runOnce(name, seed, plain, ""); err != nil {
			return err
		}
		t.add(r)
		plainRuns = append(plainRuns, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	profPath := filepath.Join(".bench_build", "profiles", fmt.Sprintf("%s-seed%d.pprof", name, seed))
	r, err := runOnce(name, seed, profiled, profPath)
	if err != nil {
		return nil, err
	}
	t.add(r)
	shares, err := readProfile(profPath)
	if err != nil {
		return nil, err
	}
	values := make(map[string]float64)
	for _, def := range perLayer {
		values[def.name] = median(collect(tracedRuns, func(r run) float64 { return r.layers[def.name] }))
	}
	values["runtime.gc_cycles"] = median(collect(tracedRuns, func(r run) float64 { return float64(r.gcCycles) }))
	values["runtime.gc_cpu_s"] = median(collect(tracedRuns, func(r run) float64 { return r.gcCPU }))
	for _, pkg := range profiledPackages {
		values["cpu_share."+pkg] = shares.cum[pkg]
		values["cpu_self."+pkg] = shares.self[pkg]
	}
	values["trace.traced_jobs_per_s"] = median(collect(tracedRuns, run.jobsPerSec))
	values["trace.untraced_jobs_per_s"] = median(collect(plainRuns, run.jobsPerSec))
	fmt.Printf("%s seed %d: %d traced, %d plain, 1 profiled run\n", name, seed, len(tracedRuns), len(plainRuns))
	for _, def := range perLayer {
		t.set(def, values[def.name])
	}
	return t.finish(name, seed), nil
}

// repeat calls fn at least min times, and then as long as the budget
// lasts: it does not start a call the previous one says would overrun it.
func repeat(budget time.Duration, min int, fn func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last <= budget; n++ {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

func collect(runs []run, f func(run) float64) []float64 {
	out := make([]float64, len(runs))
	for i := range runs {
		out[i] = f(runs[i])
	}
	return out
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
