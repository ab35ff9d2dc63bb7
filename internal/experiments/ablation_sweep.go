package experiments

import (
	"fmt"
	"io"

	"wasched/internal/farm"
)

// AblationGrid names one registered ablation grid — a self-contained
// comparison table over scheduler variants or parameter sweeps. The CLI
// registry (`wasched run ablation-*`) and the "ablations" sweep are both
// derived from this list, so a grid registered here is automatically
// runnable standalone and as a sweep cell.
type AblationGrid struct {
	Name        string
	Description string
	Run         func(seed uint64) ([]AblationRow, error)
}

// AblationGrids returns the registered grids in report order.
func AblationGrids() []AblationGrid {
	return []AblationGrid{
		{"ablation-two-group", "two-group approximation on/off (W2, adaptive 15 GiB/s)", AblationTwoGroup},
		{"ablation-guard", "measured-throughput guard on/off under lying estimates (staggered arrivals)", AblationMeasuredGuard},
		{"ablation-backfill", "BackfillMax depth sweep on the mixed multi-node workload", AblationBackfillMax},
		{"ablation-licenses", "analytics estimates vs static user-declared licenses (W1)", AblationLicenses},
		{"ablation-qos", "two-group QoS fraction sweep (W2, adaptive 15 GiB/s)", AblationQoSFraction},
		{"ablation-bursty", "bursty-application workload: default vs adaptive", AblationBurstOverlap},
		{"ablation-submission", "submission protocols: batch vs feeder vs poisson (W1, adaptive)", AblationSubmission},
		{"ablation-degradation", "mid-run file-system degradation: default vs adaptive (W1)", AblationDegradation},
		{"ablation-ordering", "FIFO vs TETRIS dot-product window ordering (mixed workload)", AblationOrdering},
		{"sweep-limit", "fixed-limit U-curve vs the self-tuning adaptive scheduler (W1)", SweepLimit},
		{"ablation-plateau", "two-group benefit in the plateau regime (W2, shallow queue)", AblationPlateau},
		{"ablation-checkpoint", "checkpoint/restart read+write workload: default vs io-aware vs adaptive", AblationCheckpoint},
		{"ablation-burstbuffer", "BB-bottlenecked workload: BB-blind policies vs plan co-reservation (replayer)", AblationBurstBuffer},
		{"ablation-tokenbucket", "central I/O reservation vs decentralized token buckets vs straggler-aware (replayer, 3 seeds)", AblationTokenBucket},
	}
}

// AblationDigest is the summary of one ablation table row: the
// numbers PrintAblation renders, without the run's recorders (use
// `wasched run <grid> -csv` for the full series).
type AblationDigest struct {
	Label           string
	Makespan        float64
	VsBase          float64
	Busy            float64
	Throughput      float64
	IdleNodeSeconds float64
	Timeouts        int
	Extra           string
}

// DigestAblation reduces full ablation rows to their table digests.
func DigestAblation(rows []AblationRow) []AblationDigest {
	out := make([]AblationDigest, len(rows))
	for i, r := range rows {
		out[i] = AblationDigest{
			Label:           r.Label,
			Makespan:        r.Result.Makespan,
			VsBase:          r.VsBase,
			Busy:            r.Result.MeanBusyNodes,
			Throughput:      r.Result.MeanThroughput,
			IdleNodeSeconds: r.Result.IdleNodeSeconds,
			Timeouts:        r.Result.Timeouts,
			Extra:           r.Extra,
		}
	}
	return out
}

// PrintAblationDigests renders an ablation comparison table from digests.
func PrintAblationDigests(w io.Writer, rows []AblationDigest) {
	fmt.Fprintf(w, "%-48s %12s %9s %6s %9s %12s %8s\n",
		"configuration", "makespan[s]", "vs base", "busy", "tp[GiB/s]", "idle[node-s]", "timeouts")
	for i, r := range rows {
		vs := "-"
		if i > 0 {
			vs = fmt.Sprintf("%+.1f%%", 100*r.VsBase)
		}
		fmt.Fprintf(w, "%-48s %12.0f %9s %6.2f %9.2f %12.0f %8d",
			r.Label, r.Makespan, vs, r.Busy, r.Throughput, r.IdleNodeSeconds, r.Timeouts)
		if r.Extra != "" {
			fmt.Fprintf(w, "  %s", r.Extra)
		}
		fmt.Fprintln(w)
	}
}

// ablationSweep registers every grid as one cell of the "ablations"
// sweep, so the farm's workers run the grids in parallel.
func ablationSweep() Sweep {
	return Sweep{
		Name:        "ablations",
		Description: "every ablation grid, one cell per grid (table digests)",
		Cells: func(cfg SweepConfig) []farm.Cell {
			grids := AblationGrids()
			cells := make([]farm.Cell, len(grids))
			for i, g := range grids {
				cells[i] = farm.Cell{Experiment: "ablations", Config: g.Name, Seed: cfg.Seed}
			}
			return cells
		},
		Exec: func(SweepConfig) farm.Exec {
			byName := make(map[string]AblationGrid, len(AblationGrids()))
			for _, g := range AblationGrids() {
				byName[g.Name] = g
			}
			return func(c farm.Cell) (any, error) {
				g, ok := byName[c.Config]
				if !ok {
					return nil, fmt.Errorf("experiments: unknown ablation grid %q", c.Config)
				}
				rows, err := g.Run(c.Seed)
				if err != nil {
					return nil, err
				}
				return DigestAblation(rows), nil
			}
		},
		Report: reportAblations,
	}
}

func reportAblations(w io.Writer, _ SweepConfig, sum *farm.Summary) error {
	if err := sweepErr(sum); err != nil {
		return err
	}
	byName := make(map[string][]AblationDigest, len(sum.Outcomes))
	for _, o := range sum.Outcomes {
		byName[o.Cell.Config] = o.Value().([]AblationDigest)
	}
	for i, g := range AblationGrids() {
		rows, ok := byName[g.Name]
		if !ok {
			return fmt.Errorf("experiments: grid %s missing from sweep", g.Name)
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== %s: %s ===\n\n", g.Name, g.Description)
		PrintAblationDigests(w, rows)
	}
	return nil
}
