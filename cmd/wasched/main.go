// Command wasched runs the paper-reproduction experiments.
//
// Usage:
//
//	wasched list
//	wasched workloads
//	wasched run <experiment> [-seed N] [-parallel N]
//	wasched replay <trace.swf[.gz]> [-policy P] ...
//	wasched sweep list|run ...
//
// `wasched list` prints the registered experiments (fig3..fig6 plus the
// ablations); `wasched run` executes one and prints its report, including
// ASCII renderings of the figures' panels. `wasched sweep run` drives the
// farm's worker pool directly: the sweep's cells run in parallel and the
// report is the same for any -workers value.
package main

import (
	"flag"
	"fmt"
	"os"

	"wasched/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wasched:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		reg := experiments.Registry()
		for _, name := range experiments.Names() {
			fmt.Printf("  %-22s %s\n", name, reg[name].Description)
		}
		return nil
	case "workloads":
		fmt.Println(experiments.WorkloadSizes())
		return nil
	case "run":
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		seed := fs.Uint64("seed", 1, "experiment seed (same seed → identical report)")
		csvDir := fs.String("csv", "", "directory for per-run series/job CSV exports")
		parallel := fs.Int("parallel", 0, "worker bound for multi-run experiments (<=0: GOMAXPROCS)")
		// Accept flags before or after the experiment name.
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return fmt.Errorf("usage: wasched run <experiment> [-seed N] [-csv DIR] [-parallel N]")
		}
		name := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: wasched run <experiment> [-seed N] [-csv DIR] [-parallel N]")
		}
		entry, ok := experiments.Registry()[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (try `wasched list`)", name)
		}
		return entry.Run(os.Stdout, experiments.RunOptions{Seed: *seed, CSVDir: *csvDir, Workers: *parallel})
	case "sweep":
		return runSweep(args[1:])
	case "replay":
		return runReplay(args[1:])
	case "verify":
		fs := flag.NewFlagSet("verify", flag.ContinueOnError)
		seed := fs.Uint64("seed", 1, "experiment seed")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		claims, err := experiments.Verify(os.Stdout, *seed)
		if err != nil {
			return err
		}
		for _, c := range claims {
			if !c.Pass {
				return fmt.Errorf("claim %s failed", c.ID)
			}
		}
		return nil
	case "report":
		fs := flag.NewFlagSet("report", flag.ContinueOnError)
		seed := fs.Uint64("seed", 1, "experiment seed")
		out := fs.String("out", "", "output file (default stdout)")
		csvDir := fs.String("csv", "", "directory for per-run CSV exports")
		parallel := fs.Int("parallel", 0, "worker bound for multi-run experiments (<=0: GOMAXPROCS)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		w := os.Stdout
		var progress *os.File
		var f *os.File
		if *out != "" {
			var err error
			if f, err = os.Create(*out); err != nil {
				return err
			}
			w = f
			progress = os.Stderr
		}
		err := experiments.WriteFullReport(w,
			experiments.RunOptions{Seed: *seed, CSVDir: *csvDir, Workers: *parallel}, progress)
		if f != nil {
			// A close error on the written report means data may not have
			// reached disk; surface it unless the report itself failed.
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// runSweep dispatches the `wasched sweep` subcommands.
func runSweep(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: wasched sweep list|run ...")
	}
	switch args[0] {
	case "list":
		reg := experiments.Sweeps()
		for _, name := range experiments.SweepNames() {
			fmt.Printf("  %-14s %s\n", name, reg[name].Description)
		}
		return nil
	case "run":
		return sweepRun(args[1:])
	default:
		return fmt.Errorf("unknown sweep command %q (want list or run)", args[0])
	}
}

// sweepRun executes a registered sweep and prints its report. Flags are
// accepted before or after the sweep name (as `wasched run` does).
func sweepRun(args []string) error {
	const usage = "usage: wasched sweep run <name> [-seed N] [-repeats N] [-workers N]"
	fs := flag.NewFlagSet("sweep run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "sweep seed (same seed → identical cells and results)")
	repeats := fs.Int("repeats", 0, "repeat-count override where the sweep supports it (0: default)")
	workers := fs.Int("workers", 0, "concurrent cell executions (<=0: GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf(usage)
	}
	name := rest[0]
	if err := fs.Parse(rest[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sweep run: unexpected arguments %v", fs.Args())
	}
	s, ok := experiments.Sweeps()[name]
	if !ok {
		return fmt.Errorf("unknown sweep %q (try `wasched sweep list`)", name)
	}
	return s.Run(os.Stdout, experiments.SweepConfig{Seed: *seed, Repeats: *repeats}, *workers)
}

func usage() {
	fmt.Fprintln(os.Stderr, `wasched — workload-adaptive I/O-aware scheduling experiments

commands:
  list                 list available experiments
  workloads            print the standard workloads' sizes
  run <name> [-seed N] [-csv DIR] [-parallel N]
                       run one experiment and print its report
  replay <trace.swf[.gz]> [-policy P] [-nodes N] [-limit-gib G] [-checks]
         [-bb-capacity-gib G] [-bb-fraction F] [-bb-gib-per-node G]
                       stream an SWF archive trace through the lightweight
                       replayer and report scheduling throughput per policy;
                       the -bb-* flags emulate a shared burst-buffer pool
                       (assigning synthetic reservations to -bb-fraction of
                       jobs) for the plan and bb-io-aware policies
  sweep list           list the registered cell sweeps
  sweep run <name> [-seed N] [-repeats N] [-workers N]
                       run a sweep's cells on the farm's worker pool and
                       print its report (identical for any -workers)
  report [-seed N] [-out FILE] [-csv DIR] [-parallel N]
                       run every experiment and write one full report
  verify [-seed N]     check the headline reproduction claims (exit 1 on failure)`)
}
