package main

import (
	"fmt"

	"wasched/internal/bb"
	"wasched/internal/experiments"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/schedcheck"
	"wasched/internal/slurm"
	"wasched/internal/tbf"
	"wasched/internal/workload"
)

// Workload names, as passed to --workload.
const (
	paperW1    = "paper-w1"
	w2Storage  = "w2-storage"
	replay120k = "replay-120k"
)

var workloadNames = []string{paperW1, w2Storage, replay120k}

// Storage-plane settings of w2-storage.
const (
	// bbPoolBytes is the shared burst-buffer pool.
	bbPoolBytes = 64 * pfs.GiB
	// bbBytesPerNode is the reservation of each BB job (all paper jobs
	// are one node wide).
	bbBytesPerNode = 8 * pfs.GiB
	// tbfCapacity is the aggregate token fill rate shared by the
	// client-side buckets.
	tbfCapacity = 10 * pfs.GiB
)

// bbClasses are the Workload 2 job classes that carry a burst-buffer
// reservation on w2-storage. The set is fixed rather than drawn per seed
// (workload.AssignBBDemand draws per class, so its BB job count, and with
// it the simulated makespan, swings by a factor of two between seeds).
// write×4 and write×2 are the mid-sized writers: their 500 jobs per run
// stage in from the PFS while the write×8 and write×6 phases of the same
// wave write to it, and at 8 GiB a job the 64 GiB pool holds eight of them
// at once, so admission defers some starts without serialising the queue.
var bbClasses = map[string]bool{"writex4": true, "writex2": true}

// w2WriteLimit is the runtime limit every write job of w2-storage
// requests. The paper's workload.WriteLimit bounds a congested writer at
// R_limit 20 GiB/s; here the token buckets grant 10 GiB/s in all and a BB
// job stages its input in from the PFS inside its allocation: writers run
// up to 0.98 × WriteLimit on some seeds, and on seed 130 a BB job is
// killed at it. At twice the paper's limit the longest write job of seeds
// 1–140 runs 1294 s and every job completes.
const w2WriteLimit = 2 * workload.WriteLimit

// replayTrace is the archive-scale trace of replay-120k, relative to the
// repository root.
const replayTrace = "testdata/swf/synthetic-120k.swf.gz"

// desWorkload is a full-prototype workload: the jobs to submit at t=0 and
// the system to run them on.
type desWorkload struct {
	jobs []workload.TimedSpec
	opts experiments.Options
	// limit is the R_limit of the unwrapped policy, which the schedule
	// validation checks the sampled throughput against.
	limit float64
}

// specs returns the job specs in submission order.
func (w desWorkload) specs() []slurm.JobSpec {
	out := make([]slurm.JobSpec, len(w.jobs))
	for i, j := range w.jobs {
		out[i] = j.Spec
	}
	return out
}

// newDESWorkload generates the jobs and options of a DES workload. The
// seed reaches the system's random streams (volume choice, monitoring
// phases); the job lists are the paper's fixed workloads.
func newDESWorkload(name string, seed uint64) (desWorkload, error) {
	switch name {
	case paperW1:
		p := sched.AdaptivePolicy{
			TotalNodes:      experiments.Nodes,
			ThroughputLimit: experiments.Limit20,
			TwoGroup:        true,
		}
		return desWorkload{
			jobs:  workload.Timed(workload.Workload1(), 0),
			opts:  experiments.DefaultOptions(p, seed),
			limit: p.ThroughputLimit,
		}, nil
	case w2Storage:
		jobs := workload.Timed(workload.Workload2(), 0)
		for i := range jobs {
			s := &jobs[i].Spec
			if s.Limit == workload.WriteLimit {
				s.Limit = w2WriteLimit
			}
			if bbClasses[s.Fingerprint] {
				s.BBBytes = float64(s.Nodes) * bbBytesPerNode
				s.Fingerprint += "-bb"
			}
		}
		p := sched.PlanPolicy{
			TotalNodes:      experiments.Nodes,
			BBCapacity:      bbPoolBytes,
			ThroughputLimit: experiments.Limit20,
		}
		opts := experiments.DefaultOptions(p, seed)
		opts.BB = bb.Config{CapacityBytes: bbPoolBytes}
		opts.TBF = tbf.Config{CapacityBytesPerSec: tbfCapacity}
		return desWorkload{jobs: jobs, opts: opts, limit: p.ThroughputLimit}, nil
	}
	return desWorkload{}, fmt.Errorf("not a DES workload: %q", name)
}

// replayConfig is replay-120k's replayer configuration: the adaptive
// two-group policy at 20 GiB/s on the incremental session path, per-round
// checks off and the end-of-run schedule check on.
func replayConfig() schedcheck.ReplayConfig {
	p := sched.AdaptivePolicy{
		TotalNodes:      experiments.Nodes,
		ThroughputLimit: experiments.Limit20,
		TwoGroup:        true,
	}
	return schedcheck.ReplayConfig{
		Policy:          p,
		Options:         sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
		Nodes:           experiments.Nodes,
		Limit:           p.ThroughputLimit,
		MaxRounds:       1 << 30,
		SkipRoundChecks: true,
	}
}

// loadReplayJobs parses and converts the replay trace. The seed drives the
// converter's choice of which jobs carry a synthetic write phase.
func loadReplayJobs(seed uint64) ([]schedcheck.SimJob, error) {
	f, err := workload.OpenSWF(replayTrace)
	if err != nil {
		return nil, err
	}
	//waschedlint:allow checkederr the trace is opened read-only; close cannot lose data
	defer f.Close()
	opts := workload.DefaultSWFOptions()
	opts.Seed = seed
	jobs, _, err := schedcheck.LoadSWFSimJobs(f, opts)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", replayTrace, err)
	}
	return jobs, nil
}
