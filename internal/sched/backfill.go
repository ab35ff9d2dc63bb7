package sched

import "wasched/internal/des"

// Unlimited directs the backfill engine to reserve resources for every
// delayed job, which is the paper's characterisation of the default Slurm
// configuration (BackfillMax = ∞).
const Unlimited = 0

// EASY is the BackfillMax value that makes the engine equivalent to EASY
// backfill: only the first delayed job receives a reservation.
const EASY = 1

// SlurmDefaultTestLimit mirrors Slurm's bf_max_job_test default: at most
// this many queued jobs are examined per round. Zero means no limit.
const SlurmDefaultTestLimit = 100

// Decision is the outcome of one scheduling round for one examined job.
type Decision struct {
	Job *Job
	// StartNow is true when the job can start immediately.
	StartNow bool
	// PlannedStart is the reservation time for delayed jobs that received
	// one (valid when Reserved is true).
	PlannedStart des.Time
	// Reserved is true when resources were reserved for a delayed job.
	Reserved bool
	// Skipped is true when the job was passed over without a reservation
	// (BackfillMax exhausted, or no feasible start exists).
	Skipped bool
}

// Options configure the backfill engine.
type Options struct {
	// BackfillMax bounds how many delayed jobs receive reservations per
	// round (paper Algorithm 1). Unlimited (0) reserves for all; EASY (1)
	// reserves only for the head of the queue.
	BackfillMax int
	// MaxJobTest bounds how many queued jobs are examined per round
	// (Slurm bf_max_job_test). Zero examines the whole queue.
	MaxJobTest int
}

// RunRound executes one round of the backfill algorithm (paper
// Algorithm 1) under the given policy. The waiting slice must already be
// sorted (SortQueue); running jobs must carry StartedAt. The returned
// decisions list one entry per examined job, in queue order; callers start
// the StartNow jobs. The round state is returned alongside so callers can
// read per-round diagnostics (Diagnoser).
//
// The engine asks the policy for a fresh Round (reservation trackers
// initialised from the running set), then walks the queue: a job whose
// earliest start equals the current time starts now and its resources are
// reserved; otherwise the job receives a future reservation, until
// BackfillMax reservations have been made, after which jobs are skipped
// for this round. RunRound is the one-shot form of a Runner: a simulator
// that runs many rounds keeps one Runner instead.
func RunRound(p Policy, in RoundInput, opt Options) ([]Decision, Round) {
	rn := Runner{p: p}
	return rn.RunRound(in, opt)
}

// Runner runs the backfill rounds of one policy and owns every per-round
// buffer: the reservation state of a library policy (its round and, for
// the adaptive policies, the target layer), the decision list and the
// reordered-window copy. Each round rebuilds the reservation state from
// that round's running set into the reused buffers, so a simulator that
// refreshes estimates between rounds sees them, and a warmed Runner
// allocates nothing per round. The decisions and the Round that RunRound
// returns are valid until its next call.
type Runner struct {
	p         Policy
	rt        *round         // nil for a policy from outside the library
	adaptive  *adaptiveRound // nil unless the policy is workload-adaptive
	decisions []Decision
	window    []*Job
}

// NewRunner returns a Runner for p, validating p once: it panics on an
// invalid configuration exactly as p.NewRound does.
func NewRunner(p Policy) *Runner {
	rn := &Runner{p: p}
	if m, ok := modelOf(p); ok {
		rn.rt, rn.adaptive = m.alloc()
	}
	return rn
}

// RunRound executes one backfill round (see the package-level RunRound)
// against this Runner's rebuilt reservation state. A policy from outside
// the library builds its own round through p.NewRound.
//
//waschedlint:hotpath
func (rn *Runner) RunRound(in RoundInput, opt Options) ([]Decision, Round) {
	var rt Round
	if rn.rt != nil {
		rt = rebuild(in, rn.rt, rn.adaptive)
	} else {
		rt = rn.p.NewRound(in)
	}
	window := in.Waiting
	if opt.MaxJobTest > 0 && len(window) > opt.MaxJobTest {
		window = window[:opt.MaxJobTest]
	}
	// Packing policies (WindowOrderer) reorder the examined window; the
	// copy keeps the controller's queue order intact.
	if orderer, ok := rn.p.(WindowOrderer); ok {
		rn.window = append(rn.window[:0], window...)
		orderer.OrderWindow(in, rn.window)
		window = rn.window
	}
	decisions := rn.decisions[:0]
	backfillCount := 0
	for _, j := range window {
		d := Decision{Job: j}
		// Defensive validation: the controller rejects such jobs at
		// submission, but a zero-node or zero-length job reaching the
		// trackers would divide by zero in the adaptive split or panic in
		// the profile arithmetic. Hold it without burning a window's
		// backfill reservation.
		if j.Nodes < 1 || j.Limit <= 0 {
			d.Skipped = true
			decisions = append(decisions, d)
			continue
		}
		t, ok := rt.EarliestStart(j, in.Now)
		switch {
		case !ok:
			// No feasible start under the policy's limits (e.g. the job
			// demands more than the whole file system): hold the job
			// without burning a backfill reservation.
			d.Skipped = true
		case t == in.Now:
			d.StartNow = true
			rt.Reserve(j, in.Now)
		case opt.BackfillMax != Unlimited && backfillCount >= opt.BackfillMax:
			d.Skipped = true
		default:
			d.PlannedStart = t
			d.Reserved = true
			rt.Reserve(j, t)
			backfillCount++
		}
		decisions = append(decisions, d)
	}
	rn.decisions = decisions
	return decisions, rt
}

// StartNowJobs filters a decision list down to the jobs to start now, in
// queue order.
func StartNowJobs(decisions []Decision) []*Job {
	var out []*Job
	for _, d := range decisions {
		if d.StartNow {
			out = append(out, d.Job)
		}
	}
	return out
}
