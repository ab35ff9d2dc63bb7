// Command benchsystem measures the full prototype — cluster, pfs, LDMS,
// SOS, analytics and slurm together — on the BenchmarkScheduling scenario
// (experiments.RunSchedulingBench, seeds 1-3) and appends the result to
// BENCH_system.json, the repository's performance trajectory for the whole
// system. With a previous entry present it fails (exit 1) when allocs/op
// grows more than 10%; allocs/op is the deterministic signal, so
// wall-clock ns/op is recorded but not gated. `make bench-system-check`
// runs this in CI.
//
// Usage:
//
//	benchsystem [-out BENCH_system.json] [-label LABEL] [-note NOTE] [-check-only]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"wasched/internal/benchtraj"
	"wasched/internal/experiments"
)

const (
	// seeds is the number of scenario runs per entry (seeds 1..seeds);
	// every entry averages over the same simulations.
	seeds = 3
	// allocThreshold is the largest allowed fractional allocs/op growth
	// against the previous entry.
	allocThreshold = 0.10
)

// Entry is one point of the system trajectory; the per-op figures average
// over the scenario's seeds.
type Entry struct {
	Date         string    `json:"date"`
	Label        string    `json:"label"`
	NsPerOp      int64     `json:"ns_per_op"`
	BytesPerOp   int64     `json:"bytes_per_op"`
	AllocsPerOp  int64     `json:"allocs_per_op"`
	SimMakespanS []float64 `json:"sim_makespan_s"`
	Note         string    `json:"note,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsystem:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "BENCH_system.json", "trajectory file to append to")
	label := flag.String("label", "bench-system", "label for this entry")
	note := flag.String("note", "", "free-form note stored with the entry")
	checkOnly := flag.Bool("check-only", false, "measure and compare but do not append")
	flag.Parse()

	entry, err := measure()
	if err != nil {
		return err
	}
	entry.Date = time.Now().UTC().Format("2006-01-02")
	entry.Label = *label
	entry.Note = *note
	fmt.Printf("workload1 adaptive: %.3f s/op  %d B/op  %d allocs/op  makespans %v\n",
		float64(entry.NsPerOp)/1e9, entry.BytesPerOp, entry.AllocsPerOp, entry.SimMakespanS)

	history, err := benchtraj.Read[Entry](*out)
	if err != nil {
		return err
	}
	if len(history) > 0 {
		if err := compare(&history[len(history)-1], entry); err != nil {
			return err
		}
	}
	if *checkOnly {
		return nil
	}
	history = append(history, *entry)
	if err := benchtraj.Write(*out, history); err != nil {
		return err
	}
	fmt.Printf("appended entry %d to %s\n", len(history), *out)
	return nil
}

// measure runs the scenario once per seed and reads the allocation
// counters around the runs, as testing's -benchmem does.
func measure() (*Entry, error) {
	e := &Entry{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := experiments.RunSchedulingBench(seed)
		if err != nil {
			return nil, err
		}
		e.SimMakespanS = append(e.SimMakespanS, res.Makespan)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	e.NsPerOp = elapsed.Nanoseconds() / seeds
	e.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / seeds
	e.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / seeds
	return e, nil
}

// compare fails when allocs/op grew past allocThreshold against the
// previous entry. Wall time and simulated makespans are reported only:
// the first swings with the host, and a deliberate scheduling change
// moves the second.
func compare(prev, cur *Entry) error {
	if prev.AllocsPerOp > 0 {
		growth := float64(cur.AllocsPerOp-prev.AllocsPerOp) / float64(prev.AllocsPerOp)
		if growth > allocThreshold {
			return fmt.Errorf("allocs/op grew %.0f%% (%d → %d, threshold %.0f%%) vs entry %q (%s)",
				100*growth, prev.AllocsPerOp, cur.AllocsPerOp, 100*allocThreshold, prev.Label, prev.Date)
		}
	}
	fmt.Printf("vs %q: %+d allocs/op, %+.0f%% ns/op\n", prev.Label, cur.AllocsPerOp-prev.AllocsPerOp,
		100*float64(cur.NsPerOp-prev.NsPerOp)/float64(max(prev.NsPerOp, 1)))
	for i := range min(len(cur.SimMakespanS), len(prev.SimMakespanS)) {
		if cur.SimMakespanS[i] != prev.SimMakespanS[i] {
			fmt.Printf("note: seed %d makespan moved %.0f → %.0f s\n", i+1, prev.SimMakespanS[i], cur.SimMakespanS[i])
		}
	}
	return nil
}
