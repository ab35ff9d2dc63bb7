package experiments

import (
	"fmt"
	"io"
	"sort"

	"wasched/internal/farm"
	"wasched/internal/pfs"
	"wasched/internal/schedcheck"
	"wasched/internal/slurm"
	"wasched/internal/workload"
)

// SweepConfig parameterises a registered sweep. The worker count lives in
// farm.Options and is supplied by the caller driving farm.Run.
type SweepConfig struct {
	// Seed varies the stochastic parts; identical seeds reproduce identical
	// cells and results.
	Seed uint64
	// Repeats overrides the sweep's repeat count where meaningful (fig6
	// matrix); <= 0 uses the sweep's default.
	Repeats int
}

// Sweep is one registered cell sweep, runnable through `wasched sweep
// run`. Cells must be a pure function of the config, and Exec must derive
// all randomness from the cell (see farm.Cell), so the report is the same
// bit for bit for any worker count.
type Sweep struct {
	Name        string
	Description string
	// Cells enumerates the sweep's work units.
	Cells func(cfg SweepConfig) []farm.Cell
	// Exec builds the per-cell executor.
	Exec func(cfg SweepConfig) farm.Exec
	// Report aggregates a completed summary into human-readable output. It
	// must fail (not partially report) when the summary holds failed cells.
	Report func(w io.Writer, cfg SweepConfig, sum *farm.Summary) error
}

// Run executes the sweep's cells on a pool of workers (<= 0: GOMAXPROCS)
// and writes its report: what `wasched sweep run` prints.
func (s Sweep) Run(w io.Writer, cfg SweepConfig, workers int) error {
	sum, err := farm.Run(s.Cells(cfg), s.Exec(cfg), farm.Options{Workers: workers})
	if err != nil {
		return err
	}
	return s.Report(w, cfg, sum)
}

// Sweeps returns every registered sweep, keyed by name.
func Sweeps() map[string]Sweep {
	entries := []Sweep{
		{
			Name:        "fig6",
			Description: "paper Fig. 6 repeat matrix: 5 configurations × repeats of Workload 2",
			Cells:       func(cfg SweepConfig) []farm.Cell { return Fig6Cells(fig6SweepConfig(cfg)) },
			Exec:        func(cfg SweepConfig) farm.Exec { return Fig6Exec(fig6SweepConfig(cfg)) },
			Report: func(w io.Writer, cfg SweepConfig, sum *farm.Summary) error {
				rows, err := Fig6Rows(fig6SweepConfig(cfg), sum)
				if err != nil {
					return err
				}
				PrintFig6(w, rows)
				return nil
			},
		},
		{
			Name:        "fig6-smoke",
			Description: "miniature fig6 matrix (smoke workload, 2 repeats) for quick checks",
			Cells:       func(cfg SweepConfig) []farm.Cell { return Fig6Cells(fig6SmokeConfig(cfg)) },
			Exec:        func(cfg SweepConfig) farm.Exec { return Fig6Exec(fig6SmokeConfig(cfg)) },
			Report: func(w io.Writer, cfg SweepConfig, sum *farm.Summary) error {
				rows, err := Fig6Rows(fig6SmokeConfig(cfg), sum)
				if err != nil {
					return err
				}
				PrintFig6(w, rows)
				return nil
			},
		},
		{
			Name:        "fig4",
			Description: "paper Fig. 4 calibration ladder: throughput vs concurrent write×8 jobs",
			Cells:       func(cfg SweepConfig) []farm.Cell { return Fig4Cells(fig4SweepConfig(cfg)) },
			Exec:        func(cfg SweepConfig) farm.Exec { return Fig4Exec(fig4SweepConfig(cfg)) },
			Report: func(w io.Writer, cfg SweepConfig, sum *farm.Summary) error {
				points, err := Fig4Points(sum)
				if err != nil {
					return err
				}
				PrintFig4(w, points)
				return nil
			},
		},
		{
			Name:        "fig3",
			Description: "paper Fig. 3 panels (Workload 1, 5 configurations), makespan digests",
			Cells:       panelCells("fig3", Fig3Variants()),
			Exec:        panelExec(RunFig3),
			Report:      panelReport("Fig. 3 (Workload 1)", Fig3Variants()),
		},
		{
			Name:        "fig5",
			Description: "paper Fig. 5 panels (Workload 2, 5 configurations), makespan digests",
			Cells:       panelCells("fig5", Fig5Variants()),
			Exec:        panelExec(RunFig5),
			Report:      panelReport("Fig. 5 (Workload 2)", Fig5Variants()),
		},
		{
			Name:        "schedcheck",
			Description: "differential correctness corpus: every workload kind × seed, all policies",
			Cells: func(cfg SweepConfig) []farm.Cell {
				return schedcheck.CorpusCells("schedcheck", corpusSeeds(cfg))
			},
			Exec: func(cfg SweepConfig) farm.Exec {
				return schedcheck.CorpusExec(corpusNodes, corpusLimit)
			},
			Report: reportCorpus,
		},
		ablationSweep(),
	}
	m := make(map[string]Sweep, len(entries))
	for _, s := range entries {
		m[s.Name] = s
	}
	return m
}

// SweepNames returns the registered sweep names in sorted order.
func SweepNames() []string {
	reg := Sweeps()
	out := make([]string, 0, len(reg))
	for name := range reg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func fig6SweepConfig(cfg SweepConfig) Fig6Config {
	return Fig6Config{Repeats: cfg.Repeats, Seed: cfg.Seed}
}

// SmokeWorkload is a scaled-down Workload 1 (2 waves × (15 write×8 + 30
// sleep)): large enough for write congestion to separate the policies,
// small enough that a full smoke sweep finishes in seconds. The smoke
// sweep and the farm determinism/benchmark tests share it.
func SmokeWorkload() []slurm.JobSpec {
	var specs []slurm.JobSpec
	for wave := 0; wave < 2; wave++ {
		for i := 0; i < 15; i++ {
			specs = append(specs, workload.WriteJob(8))
		}
		for i := 0; i < 30; i++ {
			specs = append(specs, workload.SleepJob())
		}
	}
	return specs
}

func fig6SmokeConfig(cfg SweepConfig) Fig6Config {
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 2
	}
	return Fig6Config{
		Repeats:    repeats,
		Seed:       cfg.Seed,
		Experiment: "fig6-smoke",
		Workload:   SmokeWorkload(),
	}
}

func fig4SweepConfig(cfg SweepConfig) Fig4Config {
	c := DefaultFig4Config()
	c.Seed = cfg.Seed
	return c
}

// panelCells enumerates one cell per figure panel.
func panelCells(experiment string, variants []Variant) func(SweepConfig) []farm.Cell {
	return func(cfg SweepConfig) []farm.Cell {
		cells := make([]farm.Cell, len(variants))
		for i, v := range variants {
			cells[i] = farm.Cell{Experiment: experiment, Config: v.Key, Seed: cfg.Seed}
		}
		return cells
	}
}

// panelPayload is the digest of one figure panel: the sweep drops the
// series recorders (use `wasched run fig3 -csv` for those) and keeps the
// summary numbers.
type panelPayload struct {
	Label      string
	Makespan   float64
	BusyNodes  float64
	Throughput float64
	MedianWait float64
	Bsld       float64
}

func panelExec(run func(string, uint64) (*RunResult, error)) func(SweepConfig) farm.Exec {
	return func(SweepConfig) farm.Exec {
		return func(c farm.Cell) (any, error) {
			res, err := run(c.Config, c.Seed)
			if err != nil {
				return nil, err
			}
			return panelPayload{
				Label:      res.Label,
				Makespan:   res.Makespan,
				BusyNodes:  res.MeanBusyNodes,
				Throughput: res.MeanThroughput,
				MedianWait: res.MedianWait,
				Bsld:       res.Sched.MeanBoundedSlowdown,
			}, nil
		}
	}
}

func panelReport(title string, variants []Variant) func(io.Writer, SweepConfig, *farm.Summary) error {
	return func(w io.Writer, _ SweepConfig, sum *farm.Summary) error {
		if err := sweepErr(sum); err != nil {
			return err
		}
		byKey := make(map[string]panelPayload, len(sum.Outcomes))
		for _, o := range sum.Outcomes {
			byKey[o.Cell.Config] = o.Value().(panelPayload)
		}
		fmt.Fprintf(w, "=== %s ===\n\n", title)
		fmt.Fprintf(w, "%-45s %12s %9s %6s %9s %10s %8s\n",
			"configuration", "makespan[s]", "vs base", "busy", "tp[GiB/s]", "wait[s]", "bsld")
		base := 0.0
		for i, v := range variants {
			p, ok := byKey[v.Key]
			if !ok {
				return fmt.Errorf("experiments: panel %s missing from sweep", v.Key)
			}
			if i == 0 {
				base = p.Makespan
			}
			vs := "-"
			if base > 0 && p.Makespan != base {
				vs = fmt.Sprintf("%+.1f%%", 100*(p.Makespan-base)/base)
			}
			fmt.Fprintf(w, "%-45s %12.0f %9s %6.2f %9.2f %10.0f %8.1f\n",
				p.Label, p.Makespan, vs, p.BusyNodes, p.Throughput, p.MedianWait, p.Bsld)
		}
		return nil
	}
}

// The schedcheck sweep replays the differential corpus on the same
// miniature cluster the package's own tests use.
const (
	corpusNodes = 16
	corpusLimit = 20 * pfs.GiB
)

func corpusSeeds(cfg SweepConfig) []uint64 {
	seeds := schedcheck.CorpusSeeds()
	if cfg.Seed != 0 {
		for i := range seeds {
			seeds[i] += cfg.Seed
		}
	}
	return seeds
}

func reportCorpus(w io.Writer, _ SweepConfig, sum *farm.Summary) error {
	if err := sweepErr(sum); err != nil {
		return err
	}
	fmt.Fprintln(w, "=== schedcheck differential corpus ===")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s %6s %6s %9s %9s\n", "kind", "seed", "jobs", "checked", "warnings")
	jobs, checked := 0, 0
	for _, o := range sum.Outcomes {
		p := o.Value().(schedcheck.CorpusPayload)
		fmt.Fprintf(w, "%-14s %6d %6d %9d %9d\n", p.Kind, p.Seed, p.Jobs, p.JobsChecked, p.Warnings)
		jobs += p.Jobs
		checked += p.JobsChecked
	}
	fmt.Fprintf(w, "\n%d workloads, %d jobs generated, %d job records validated; all invariants held\n",
		len(sum.Outcomes), jobs, checked)
	return nil
}
