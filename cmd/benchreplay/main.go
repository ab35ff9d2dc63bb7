// Command benchreplay measures the archive-trace replay throughput on the
// bundled 10k-job SWF trace and appends the result to BENCH_replay.json,
// the repository's performance trajectory for the scheduling hot path.
// With a previous entry present it fails (exit 1) when any policy's
// allocs/op grows past the alloc threshold (the deterministic signal), or
// when its jobs/s drops past the wall-clock threshold against the latest
// entry measured on the same host (CPU model, GOMAXPROCS and GOARCH);
// with no such entry the jobs/s are printed but not gated. `make
// bench-replay-check` runs this in CI.
//
// Usage:
//
//	benchreplay [-trace testdata/swf/synthetic-10k.swf] [-out BENCH_replay.json]
//	            [-label NOTE] [-threshold 0.35] [-alloc-threshold 0.10]
//	            [-farm] [-check-only]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"wasched/internal/benchtraj"
	"wasched/internal/experiments"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/workload"
)

// PolicyBench is one policy's measured replay throughput.
type PolicyBench struct {
	JobsPerSec   float64 `json:"jobs_per_s"`
	RoundsPerSec float64 `json:"rounds_per_s"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// FarmBench is the farm orchestrator's measured cell throughput
// (BenchmarkFarmFig6 in tool form).
type FarmBench struct {
	SerialCellsPerSec   float64 `json:"serial_cells_per_s"`
	ParallelCellsPerSec float64 `json:"parallel_cells_per_s"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
}

// Host fingerprints the machine an entry was measured on: wall-clock
// jobs/s compare only between entries with equal fingerprints.
type Host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
}

// Entry is one point of the performance trajectory.
type Entry struct {
	Date     string                 `json:"date"`
	Label    string                 `json:"label"`
	Trace    string                 `json:"trace"`
	Jobs     int                    `json:"jobs"`
	Host     *Host                  `json:"host,omitempty"`
	Policies map[string]PolicyBench `json:"policies"`
	Farm     *FarmBench             `json:"farm_fig6,omitempty"`
	Note     string                 `json:"note,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		os.Exit(1)
	}
}

func run() error {
	trace := flag.String("trace", "testdata/swf/synthetic-10k.swf", "SWF trace to replay")
	out := flag.String("out", "BENCH_replay.json", "trajectory file to append to")
	label := flag.String("label", "", "label for this entry (default: git-less timestamp)")
	threshold := flag.Float64("threshold", 0.35, "max allowed fractional jobs/s regression vs the previous entry")
	allocThreshold := flag.Float64("alloc-threshold", 0.10, "max allowed fractional allocs/op growth vs the previous entry")
	farm := flag.Bool("farm", false, "also measure the farm orchestrator (BenchmarkFarmFig6; slow)")
	checkOnly := flag.Bool("check-only", false, "measure and compare but do not append")
	flag.Parse()

	f, err := workload.OpenSWF(*trace)
	if err != nil {
		return err
	}
	jobs, quirks, err := schedcheck.LoadSWFSimJobs(f, workload.DefaultSWFOptions())
	//waschedlint:allow checkederr the trace is opened read-only; close cannot lose data
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %d jobs (quirks: %s)\n", *trace, len(jobs), quirks)

	const nodes = 15
	limit := 20 * pfs.GiB
	entry := Entry{
		Date:     time.Now().UTC().Format("2006-01-02"),
		Label:    *label,
		Trace:    *trace,
		Jobs:     len(jobs),
		Host:     thisHost(),
		Policies: map[string]PolicyBench{},
	}
	if entry.Label == "" {
		entry.Label = "bench-replay"
	}
	for _, v := range []struct {
		label  string
		policy sched.Policy
		limit  float64
	}{
		{"default", sched.NodePolicy{TotalNodes: nodes}, 0},
		{"io-aware", sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}, limit},
		{"adaptive", sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: true}, limit},
		{"adaptive-naive", sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: false}, limit},
	} {
		cfg := schedcheck.ReplayConfig{
			Policy:          v.policy,
			Options:         sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
			Nodes:           nodes,
			Limit:           v.limit,
			MaxRounds:       1 << 30,
			SkipRoundChecks: true,
		}
		// Best of three runs: scheduler throughput is what the gate
		// guards, and the minimum-noise run is the honest estimate of it
		// on shared hardware (CI runners especially).
		var pb PolicyBench
		for attempt := 0; attempt < 3; attempt++ {
			var rounds int
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := schedcheck.Replay(jobs, cfg)
					if len(res.Jobs) != len(jobs) {
						b.Fatalf("completed %d of %d jobs", len(res.Jobs), len(jobs))
					}
					rounds = res.Rounds
				}
			})
			secPerOp := r.T.Seconds() / float64(r.N)
			if jps := float64(len(jobs)) / secPerOp; jps > pb.JobsPerSec {
				pb = PolicyBench{
					JobsPerSec:   jps,
					RoundsPerSec: float64(rounds) / secPerOp,
					AllocsPerOp:  r.AllocsPerOp(),
					BytesPerOp:   r.AllocedBytesPerOp(),
				}
			}
		}
		entry.Policies[v.label] = pb
		fmt.Printf("%-16s %9.0f jobs/s  %9.0f rounds/s  %8d allocs/op\n",
			v.label, pb.JobsPerSec, pb.RoundsPerSec, pb.AllocsPerOp)
	}

	if *farm {
		entry.Farm = measureFarm()
		fmt.Printf("farm-fig6        serial %.2f cells/s  parallel %.2f cells/s  %d allocs/op\n",
			entry.Farm.SerialCellsPerSec, entry.Farm.ParallelCellsPerSec, entry.Farm.AllocsPerOp)
	}

	history, err := benchtraj.Read[Entry](*out)
	if err != nil {
		return err
	}
	if prev := lastWithPolicies(history); prev != nil {
		if err := compareAllocs(prev, &entry, *allocThreshold); err != nil {
			return err
		}
	}
	if prev := lastOnHost(history, entry.Host); prev != nil {
		if err := compareJobs(prev, &entry, *threshold); err != nil {
			return err
		}
	} else {
		fmt.Printf("no earlier entry from this host (%s): jobs/s recorded, not gated\n", entry.Host)
	}
	if *checkOnly {
		return nil
	}
	history = append(history, entry)
	if err := benchtraj.Write(*out, history); err != nil {
		return err
	}
	fmt.Printf("appended entry %d to %s\n", len(history), *out)
	return nil
}

// measureFarm runs the BenchmarkFarmFig6 matrix (smoke workload) serial
// and parallel, in tool form.
func measureFarm() *FarmBench {
	run := func(workers int) (cellsPerSec float64, allocs int64) {
		cfg := experiments.Fig6Config{
			Repeats:    3,
			Seed:       1,
			Experiment: "fig6-bench",
			Workload:   experiments.SmokeWorkload(),
			Farm:       experiments.FarmOptions{Workers: workers},
		}
		cells := len(experiments.Fig6Cells(cfg))
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFig6(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(cells) / (r.T.Seconds() / float64(r.N)), r.AllocsPerOp()
	}
	fb := &FarmBench{}
	fb.SerialCellsPerSec, fb.AllocsPerOp = run(1)
	fb.ParallelCellsPerSec, _ = run(runtime.GOMAXPROCS(0))
	return fb
}

// thisHost fingerprints the running machine. The CPU model comes from
// the first "model name" line of /proc/cpuinfo; where that is missing the
// fingerprint is nil, so the entry's jobs/s never gate another's.
func thisHost() *Host {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return nil
	}
	//waschedlint:allow checkederr the file is read-only; close cannot lose data
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, value, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return &Host{CPU: strings.TrimSpace(value), GOMAXPROCS: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH}
		}
	}
	return nil
}

func (h *Host) String() string {
	if h == nil {
		return "unknown CPU model"
	}
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %s", h.CPU, h.GOMAXPROCS, h.GOARCH)
}

// lastWithPolicies finds the most recent entry carrying per-policy replay
// numbers (seed entries may have only derived aggregates).
func lastWithPolicies(history []Entry) *Entry {
	return lastMatching(history, func(*Entry) bool { return true })
}

// lastOnHost finds the most recent entry with per-policy numbers measured
// on an equal host; an unknown host matches nothing.
func lastOnHost(history []Entry, host *Host) *Entry {
	if host == nil {
		return nil
	}
	return lastMatching(history, func(e *Entry) bool { return e.Host != nil && *e.Host == *host })
}

func lastMatching(history []Entry, match func(*Entry) bool) *Entry {
	for i := len(history) - 1; i >= 0; i-- {
		if e := &history[i]; len(e.Policies) > 0 && match(e) {
			return e
		}
	}
	return nil
}

// sharedLabels lists, sorted, the policies present in both entries.
func sharedLabels(prev, cur *Entry) []string {
	var labels []string
	for label := range prev.Policies {
		if _, ok := cur.Policies[label]; ok {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	return labels
}

// compareAllocs fails when any policy's allocs/op grew past the threshold
// vs the previous entry. allocs/op is the primary gate: deterministic,
// immune to host contention, and hot-path churn shows up there first.
func compareAllocs(prev, cur *Entry, allocThreshold float64) error {
	for _, label := range sharedLabels(prev, cur) {
		p, c := prev.Policies[label], cur.Policies[label]
		if p.AllocsPerOp <= 0 {
			continue
		}
		growth := float64(c.AllocsPerOp-p.AllocsPerOp) / float64(p.AllocsPerOp)
		if growth > allocThreshold {
			return fmt.Errorf("policy %s allocs/op grew %.0f%% (%d → %d, threshold %.0f%%) vs entry %q (%s)",
				label, 100*growth, p.AllocsPerOp, c.AllocsPerOp, 100*allocThreshold, prev.Label, prev.Date)
		}
		fmt.Printf("vs %q: %-16s %+d allocs/op\n", prev.Label, label, c.AllocsPerOp-p.AllocsPerOp)
	}
	return nil
}

// compareJobs fails when any policy's jobs/s dropped past the threshold vs
// an entry from the same host. The threshold is wide because shared
// runners swing wall-clock throughput by double-digit percentages between
// runs.
func compareJobs(prev, cur *Entry, threshold float64) error {
	for _, label := range sharedLabels(prev, cur) {
		p, c := prev.Policies[label], cur.Policies[label]
		if p.JobsPerSec <= 0 {
			continue
		}
		drop := (p.JobsPerSec - c.JobsPerSec) / p.JobsPerSec
		if drop > threshold {
			return fmt.Errorf("policy %s regressed %.0f%% (%.0f → %.0f jobs/s, threshold %.0f%%) vs entry %q (%s)",
				label, 100*drop, p.JobsPerSec, c.JobsPerSec, 100*threshold, prev.Label, prev.Date)
		}
		fmt.Printf("vs %q: %-16s %+.0f%% jobs/s\n", prev.Label, label, -100*drop)
	}
	return nil
}
