package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wasched/internal/farm"
	"wasched/internal/trace"
	"wasched/internal/workload"
)

// RunOptions parameterise an experiment invocation.
type RunOptions struct {
	// Seed varies the stochastic parts; the same seed reproduces the same
	// report bit for bit.
	Seed uint64
	// CSVDir, when non-empty, receives per-run series and job CSV files
	// (<experiment>-series.csv, <experiment>-jobs.csv).
	CSVDir string
	// Workers bounds the parallelism of multi-run experiments (figure
	// panels, fig4 ladder, fig6 repeats); <= 0 uses GOMAXPROCS. The cell
	// results are identical for any worker count.
	Workers int
}

// Runner executes one named experiment, writing a human-readable report.
type Runner func(w io.Writer, opts RunOptions) error

// Entry describes a registered experiment.
type Entry struct {
	Name        string
	Description string
	Run         Runner
}

// Registry returns every runnable experiment, keyed by name. The names
// match DESIGN.md's per-experiment index.
func Registry() map[string]Entry {
	entries := []Entry{
		{"fig3", "paper Fig. 3: Workload 1 under all five scheduler configurations", runFig3All},
		{"fig3a", "paper Fig. 3(a): Workload 1, default Slurm scheduling", figRunner(RunFig3, "a")},
		{"fig3b", "paper Fig. 3(b): Workload 1, I/O-aware 20 GiB/s, pre-trained", figRunner(RunFig3, "b")},
		{"fig3c", "paper Fig. 3(c): Workload 1, I/O-aware 15 GiB/s, pre-trained", figRunner(RunFig3, "c")},
		{"fig3d", "paper Fig. 3(d): Workload 1, adaptive 20 GiB/s, pre-trained", figRunner(RunFig3, "d")},
		{"fig3e", "paper Fig. 3(e): Workload 1, adaptive 20 GiB/s, untrained", figRunner(RunFig3, "e")},
		{"fig4", "paper Fig. 4: throughput vs concurrent write×8 jobs (box plots)", runFig4},
		{"fig5", "paper Fig. 5: Workload 2 under all five scheduler configurations", runFig5All},
		{"fig5a", "paper Fig. 5(a): Workload 2, default Slurm scheduling", figRunner(RunFig5, "a")},
		{"fig5b", "paper Fig. 5(b): Workload 2, I/O-aware 20 GiB/s", figRunner(RunFig5, "b")},
		{"fig5c", "paper Fig. 5(c): Workload 2, I/O-aware 15 GiB/s", figRunner(RunFig5, "c")},
		{"fig5d", "paper Fig. 5(d): Workload 2, adaptive 20 GiB/s", figRunner(RunFig5, "d")},
		{"fig5e", "paper Fig. 5(e): Workload 2, adaptive 15 GiB/s", figRunner(RunFig5, "e")},
		{"fig6", "paper Fig. 6: Workload 2 makespans over repeats (swarm + medians)", runFig6},
	}
	// The ablation grids share one registry with the "ablations" sweep, so
	// a grid added there shows up in both entry points.
	for _, g := range AblationGrids() {
		entries = append(entries, Entry{g.Name, g.Description, ablationRunner(g.Run)})
	}
	m := make(map[string]Entry, len(entries))
	for _, e := range entries {
		m[e.Name] = e
	}
	return m
}

// Names returns the registered experiment names in sorted order.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func figRunner(run func(string, uint64) (*RunResult, error), key string) Runner {
	return func(w io.Writer, opts RunOptions) error {
		res, err := run(key, opts.Seed)
		if err != nil {
			return err
		}
		printRun(w, res, 0)
		printWarnings(w, res)
		printPanels(w, res)
		return exportCSV(opts.CSVDir, res)
	}
}

// exportCSV writes a run's sampled series and per-job records when a CSV
// directory was requested.
func exportCSV(dir string, res *RunResult) error {
	if dir == "" || res.Recorder == nil {
		return nil // replay-backed rows carry no sampled series
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, strings.SplitN(res.Label, ":", 2)[0])
	series, err := os.Create(filepath.Join(dir, slug+"-series.csv"))
	if err != nil {
		return err
	}
	if err := res.Recorder.WriteCSV(series); err != nil {
		series.Close()
		return err
	}
	if err := series.Close(); err != nil {
		return err
	}
	jobs, err := os.Create(filepath.Join(dir, slug+"-jobs.csv"))
	if err != nil {
		return err
	}
	if err := res.Recorder.WriteJobsCSV(jobs); err != nil {
		jobs.Close()
		return err
	}
	return jobs.Close()
}

func runFig3All(w io.Writer, opts RunOptions) error {
	return runFigAll(w, opts, "fig3-panels", "Fig. 3 (Workload 1, 720 jobs)", Fig3Variants(), RunFig3)
}

func runFig5All(w io.Writer, opts RunOptions) error {
	return runFigAll(w, opts, "fig5-panels", "Fig. 5 (Workload 2, 1550 jobs)", Fig5Variants(), RunFig5)
}

func runFigAll(w io.Writer, opts RunOptions, experiment, title string, variants []Variant,
	run func(string, uint64) (*RunResult, error)) error {
	fmt.Fprintf(w, "=== %s ===\n\n", title)
	// The panels are independent simulations: fan them out through the
	// farm (in memory — full recorders are needed for the plots below).
	cells := make([]farm.Cell, len(variants))
	for i, v := range variants {
		cells[i] = farm.Cell{Experiment: experiment, Config: v.Key, Seed: opts.Seed}
	}
	exec := func(c farm.Cell) (any, error) {
		return run(c.Config, c.Seed)
	}
	sum, err := farm.Run(cells, exec, farm.Options{Workers: opts.Workers})
	if err != nil {
		return err
	}
	// Report every failed panel, not just the first: a validator rejection
	// in one configuration must not mask another's.
	var errs []error
	results := make([]*RunResult, 0, len(variants))
	for _, o := range sum.Outcomes {
		if o.Status != farm.StatusDone {
			errs = append(errs, fmt.Errorf("panel %s: %s", o.Cell.Config, o.Err))
			continue
		}
		results = append(results, o.Value().(*RunResult))
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	base := results[0].Makespan
	for _, res := range results {
		if err := exportCSV(opts.CSVDir, res); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%-45s %12s %9s %6s %9s %10s %8s\n",
		"configuration", "makespan[s]", "vs base", "busy", "tp[GiB/s]", "wait[s]", "bsld")
	for _, res := range results {
		printRun(w, res, base)
	}
	for _, res := range results {
		printWarnings(w, res)
	}
	fmt.Fprintln(w)
	for _, res := range results {
		printPanels(w, res)
	}
	return nil
}

func printRun(w io.Writer, res *RunResult, base float64) {
	vs := "-"
	if base > 0 && res.Makespan != base {
		vs = fmt.Sprintf("%+.1f%%", 100*(res.Makespan-base)/base)
	}
	fmt.Fprintf(w, "%-45s %12.0f %9s %6.2f %9.2f %10.0f %8.1f\n",
		res.Label, res.Makespan, vs, res.MeanBusyNodes, res.MeanThroughput, res.MedianWait,
		res.Sched.MeanBoundedSlowdown)
}

// printWarnings surfaces the run's soft validator findings (hard
// violations already fail the run inside RunWorkload).
func printWarnings(w io.Writer, res *RunResult) {
	for _, v := range res.Invariants.Warnings {
		fmt.Fprintf(w, "warning [%s] %s: %s\n", res.Label, v.Invariant, v.Detail)
	}
}

// printPanels renders the two panels of a Fig. 3/5 plot: Lustre
// throughput (top) and node allocation (bottom), as the paper draws them.
func printPanels(w io.Writer, res *RunResult) {
	fmt.Fprintf(w, "--- %s ---\n", res.Label)
	fmt.Fprint(w, trace.Plot(&res.Recorder.Throughput, 100, 8))
	fmt.Fprint(w, trace.Plot(&res.Recorder.BusyNodes, 100, 5))
	fmt.Fprintln(w)
}

func runFig4(w io.Writer, opts RunOptions) error {
	cfg := DefaultFig4Config()
	cfg.Seed = opts.Seed
	cfg.Farm.Workers = opts.Workers
	points, err := RunFig4(cfg)
	if err != nil {
		return err
	}
	PrintFig4(w, points)
	return nil
}

// PrintFig4 renders the Fig. 4 box-plot table and median bars.
func PrintFig4(w io.Writer, points []Fig4Point) {
	fmt.Fprintln(w, "=== Fig. 4: Lustre total throughput vs concurrent write×8 jobs (GiB/s) ===")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%5s %8s %8s %8s %8s %8s %5s\n", "jobs", "min", "q1", "median", "q3", "max", "n")
	for _, p := range points {
		b := p.Box
		fmt.Fprintf(w, "%5d %8.2f %8.2f %8.2f %8.2f %8.2f %5d\n",
			p.Jobs, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "medians as bars:")
	maxMed := 0.0
	for _, p := range points {
		if p.Box.Median > maxMed {
			maxMed = p.Box.Median
		}
	}
	for _, p := range points {
		bar := 0
		if maxMed > 0 {
			bar = int(p.Box.Median / maxMed * 60)
		}
		fmt.Fprintf(w, "%3d | %-60s %6.2f\n", p.Jobs, repeat('#', bar), p.Box.Median)
	}
}

func repeat(c byte, n int) string {
	if n <= 0 {
		return ""
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func runFig6(w io.Writer, opts RunOptions) error {
	rows, err := RunFig6(Fig6Config{Repeats: 5, Seed: opts.Seed,
		Farm: FarmOptions{Workers: opts.Workers}})
	if err != nil {
		return err
	}
	PrintFig6(w, rows)
	return nil
}

// PrintFig6 renders the Fig. 6 summary table.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "=== Fig. 6: Workload 2 makespans over repeats (seconds) ===")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-40s %10s %9s %21s %7s %6s  %s\n",
		"configuration", "median", "vs base", "95% CI of median", "p", "busy", "samples")
	for i, r := range rows {
		vs := "-"
		if r.VsBase != 0 {
			vs = fmt.Sprintf("%+.1f%%", 100*r.VsBase)
		}
		pv := "-"
		if i > 0 {
			pv = fmt.Sprintf("%.3f", r.PValue)
		}
		fmt.Fprintf(w, "%-40s %10.0f %9s [%9.0f,%9.0f] %7s %6.2f  ",
			r.Variant.Label, r.Swarm.Median, vs, r.BootLo, r.BootHi, pv, r.MeanBusy)
		for _, v := range r.Swarm.Values {
			fmt.Fprintf(w, "%.0f ", v)
		}
		fmt.Fprintln(w)
	}
}

func ablationRunner(run func(uint64) ([]AblationRow, error)) Runner {
	return func(w io.Writer, opts RunOptions) error {
		rows, err := run(opts.Seed)
		if err != nil {
			return err
		}
		PrintAblation(w, rows)
		for _, r := range rows {
			if err := exportCSV(opts.CSVDir, r.Result); err != nil {
				return err
			}
		}
		return nil
	}
}

// PrintAblation renders an ablation comparison table. It goes through the
// digest form so the standalone runner and the "ablations" sweep
// print identical tables.
func PrintAblation(w io.Writer, rows []AblationRow) {
	PrintAblationDigests(w, DigestAblation(rows))
}

// WorkloadSizes reports the job counts of the standard workloads (sanity
// output for the CLI).
func WorkloadSizes() string {
	return fmt.Sprintf("workload1=%d jobs, workload2=%d jobs, mixed=%d jobs",
		len(workload.Workload1()), len(workload.Workload2()), len(workload.Mixed()))
}
