package schedcheck

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/trace"
)

// replayVariants mirrors RunDifferential's policy set: the four paper
// policies plus the unbounded-limit baseline, on the differential corpus
// defaults (16 nodes, 20 GiB/s).
func replayVariants(nodes int, limit float64) []struct {
	label  string
	policy sched.Policy
	limit  float64
} {
	return []struct {
		label  string
		policy sched.Policy
		limit  float64
	}{
		{labelDefault, sched.NodePolicy{TotalNodes: nodes}, 0},
		{labelIOAware, sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}, limit},
		{labelAdaptive, sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: true}, limit},
		{labelNaive, sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: false}, limit},
		{labelInf, sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: InfLimit}, 0},
	}
}

// bbReplayVariants are the burst-buffer-aware policies that join the
// determinism check on the BB corpus kinds.
func bbReplayVariants(nodes int, limit, capacity float64) []struct {
	label  string
	policy sched.Policy
	limit  float64
} {
	return []struct {
		label  string
		policy sched.Policy
		limit  float64
	}{
		{labelPlan, sched.PlanPolicy{TotalNodes: nodes, BBCapacity: capacity, ThroughputLimit: limit}, limit},
		{labelBBIO, sched.BBAwarePolicy{Inner: sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit}, Capacity: capacity}, limit},
	}
}

// scheduleDigest renders everything observable about a replay — the
// realised schedule in completion order, the round count, the makespan and
// every invariant finding — into one canonical string, so two replays are
// byte-identical exactly when their digests are equal.
func scheduleDigest(r *ReplayResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s rounds=%d makespan=%d\n", r.Policy, r.Rounds, r.Makespan)
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "job %s submit=%.9g start=%.9g end=%.9g nodes=%d\n",
			j.ID, j.Submit, j.Start, j.End, j.Nodes)
		if j.BBBytes > 0 {
			fmt.Fprintf(&b, "  bb bytes=%.9g staged=%.9g compute=%.9g drainend=%.9g drained=%.9g\n",
				j.BBBytes, j.BBStageInDone, j.BBComputeStart, j.BBDrainEnd, j.BBDrained)
		}
		if j.TBFGranted > 0 || j.TBFDelivered > 0 {
			fmt.Fprintf(&b, "  tbf granted=%.9g delivered=%.9g borrowed=%.9g lent=%.9g\n",
				j.TBFGranted, j.TBFDelivered, j.TBFBorrowed, j.TBFLent)
		}
	}
	for _, v := range r.Check.Violations {
		fmt.Fprintf(&b, "violation %s: %s\n", v.Invariant, v.Detail)
	}
	for _, w := range r.Check.Warnings {
		fmt.Fprintf(&b, "warning %s\n", w)
	}
	return b.String()
}

// TestReplayMatchesReferenceOnCorpus is the determinism guarantee behind
// Replay's reused per-round state: over the full differential corpus
// (every workload kind × every corpus seed) and every policy variant,
// Replay must produce a byte-identical schedule — same starts, same
// completions in the same order, same violations — as the straightforward
// loop (replayReference).
func TestReplayMatchesReferenceOnCorpus(t *testing.T) {
	const nodes = 16
	const limit = 20 * 1024 * 1024 * 1024
	for _, kind := range Kinds() {
		for _, seed := range CorpusSeeds() {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s-seed%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				workload := Generate(kind, seed, nodes, limit)
				variants := replayVariants(nodes, limit)
				if kind.HasBB() {
					variants = append(variants, bbReplayVariants(nodes, limit, CorpusBBCapacity)...)
				}
				for _, v := range variants {
					cfg := ReplayConfig{
						Policy:  v.policy,
						Options: sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
						Nodes:   nodes,
						Limit:   v.limit,
					}
					if kind.HasBB() {
						cfg.BBCapacity = CorpusBBCapacity
						cfg.BBStageRate = CorpusBBStageRate
						cfg.BBDrainRate = CorpusBBDrainRate
					}
					fast := Replay(workload, cfg)
					ref := replayReference(workload, cfg)
					got, want := scheduleDigest(fast), scheduleDigest(ref)
					if got != want {
						t.Fatalf("policy %s: replay diverged from reference\n--- replay ---\n%s--- reference ---\n%s",
							v.label, clipDigest(got), clipDigest(want))
					}
				}
				if kind.HasTBF() {
					// The token layer extends job ends round by round, so
					// running jobs outlive their first planned end: the
					// rebuilt reservations must follow them.
					for _, straggler := range []bool{false, true} {
						cfg := ReplayConfig{
							Policy:       sched.TBFPolicy{TotalNodes: nodes, Straggler: straggler},
							Options:      sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
							Nodes:        nodes,
							TBFCapacity:  CorpusTBFCapacity,
							TBFServers:   CorpusTBFServers,
							TBFStraggler: straggler,
						}
						got := scheduleDigest(Replay(workload, cfg))
						want := scheduleDigest(replayReference(workload, cfg))
						if got != want {
							t.Fatalf("tbf(straggler=%v): replay diverged from reference\n--- replay ---\n%s--- reference ---\n%s",
								straggler, clipDigest(got), clipDigest(want))
						}
					}
				}
			})
		}
	}
}

// TestReplayMatchesReferenceUnlimitedWindow re-runs a slice of the corpus
// with the whole queue examined and unlimited backfill — the regime where
// reservation state is deepest and a stale reused buffer would hurt most.
func TestReplayMatchesReferenceUnlimitedWindow(t *testing.T) {
	const nodes = 16
	const limit = 20 * 1024 * 1024 * 1024
	for _, kind := range Kinds() {
		workload := Generate(kind, 3, nodes, limit)
		for _, v := range replayVariants(nodes, limit) {
			cfg := ReplayConfig{Policy: v.policy, Nodes: nodes, Limit: v.limit}
			got := scheduleDigest(Replay(workload, cfg))
			want := scheduleDigest(replayReference(workload, cfg))
			if got != want {
				t.Fatalf("%s/%s: replay diverged from reference\n--- replay ---\n%s--- reference ---\n%s",
					kind, v.label, clipDigest(got), clipDigest(want))
			}
		}
	}
}

// clipDigest bounds a failure dump to something readable.
func clipDigest(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + "…(clipped)\n"
}

// replayReference is the straightforward replay loop: a freshly allocated
// round per call of sched.RunRound, the queue re-sorted and every
// per-round slice and map allocated anew. It is the oracle for Replay's
// reused state: TestReplayMatchesReferenceOnCorpus requires the two to
// produce byte-identical schedules on the full corpus.
func replayReference(workload []SimJob, cfg ReplayConfig) *ReplayResult {
	if cfg.Policy == nil {
		panic("schedcheck: Replay needs a policy")
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 30 * des.Second
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 50000
	}

	pending := make([]*SimJob, len(workload))
	views := make(map[string]*sched.Job, len(workload))
	for i := range workload {
		j := &workload[i]
		pending[i] = j
		views[j.ID] = &sched.Job{
			ID:          j.ID,
			Fingerprint: j.Fingerprint,
			Nodes:       j.Nodes,
			Limit:       j.Limit,
			Submit:      j.Submit,
			Priority:    j.Priority,
			Rate:        j.EstRate,
			EstRuntime:  j.EstRuntime,
			BBBytes:     j.BBBytes,
		}
	}
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].Submit < pending[b].Submit })

	res := &ReplayResult{
		Policy: cfg.Policy.Name(),
		// Sized up front: every job completes exactly once, and growing the
		// slice in place keeps the replay's alloc count independent of the
		// JobTrace footprint (the bench-replay allocs/op gate).
		Jobs:   make([]trace.JobTrace, 0, len(workload)),
		Starts: make(map[string]des.Time, len(workload)),
	}
	bbState := newBBReplay(cfg)
	tbfState := newTBFReplay(cfg)
	var running []*runJob
	var waiting []*SimJob
	next := 0 // index into pending of the next arrival

	for round := 0; ; round++ {
		if round >= maxRounds {
			res.Check.violatef("starvation", "policy %s: %d jobs still unfinished after %d rounds",
				res.Policy, len(waiting)+len(running)+(len(pending)-next), maxRounds)
			break
		}
		now := des.Time(round) * des.Time(interval)
		// The token layer advances over the interval just elapsed before
		// the completion sweep, so throttled ends are final when checked.
		tbfState.tick(running, now, interval)
		// Completions first, as the controller's end events precede the
		// round that reacts to them.
		kept := running[:0]
		for _, r := range running {
			if r.end <= now {
				jt := trace.JobTrace{
					ID:          r.sim.ID,
					Name:        r.sim.Fingerprint,
					Fingerprint: r.sim.Fingerprint,
					Nodes:       r.sim.Nodes,
					Submit:      r.sim.Submit.Seconds(),
					Start:       r.view.StartedAt.Seconds(),
					End:         r.end.Seconds(),
					Limit:       r.sim.Limit.Seconds(),
					Priority:    r.sim.Priority,
				}
				bbState.complete(r.sim, &jt, r.view.StartedAt, r.end)
				tbfState.complete(r.sim, &jt)
				res.Jobs = append(res.Jobs, jt)
				if r.end > res.Makespan {
					res.Makespan = r.end
				}
				continue
			}
			kept = append(kept, r)
		}
		running = kept
		bbState.release(now)
		for next < len(pending) && pending[next].Submit <= now {
			waiting = append(waiting, pending[next])
			next++
		}
		res.Rounds = round + 1
		if len(waiting) == 0 && len(running) == 0 && next == len(pending) {
			break
		}
		if len(waiting) == 0 {
			continue
		}

		runningViews := make([]*sched.Job, len(running))
		measured := 0.0
		for i, r := range running {
			runningViews[i] = r.view
			measured += r.sim.Rate
		}
		waitingViews := make([]*sched.Job, len(waiting))
		for i, j := range waiting {
			waitingViews[i] = views[j.ID]
		}
		sched.SortQueue(waitingViews)
		in := sched.RoundInput{
			Now:                now,
			Running:            runningViews,
			Waiting:            waitingViews,
			MeasuredThroughput: measured,
		}
		decisions, state := sched.RunRound(cfg.Policy, in, cfg.Options)
		if !cfg.SkipRoundChecks {
			checkRound(in, decisions, state, cfg, &res.Check)
		}

		startedIDs := make(map[string]bool)
		for _, d := range decisions {
			if d.StartNow {
				startedIDs[d.Job.ID] = true
			}
		}
		keptWaiting := waiting[:0]
		for _, j := range waiting {
			if !startedIDs[j.ID] {
				keptWaiting = append(keptWaiting, j)
				continue
			}
			if !bbState.admit(j) {
				// Burst-buffer pool full: defer the start, exactly as the
				// controller's admission path keeps the job pending.
				keptWaiting = append(keptWaiting, j)
				continue
			}
			v := views[j.ID]
			v.StartedAt = now
			tbfState.register(j)
			running = append(running, &runJob{sim: j, view: v, end: now.Add(j.Actual)})
			res.Starts[j.ID] = now
		}
		waiting = keptWaiting
	}
	if !cfg.SkipRoundChecks {
		res.Check.Merge(ValidateJobs(res.Jobs, ValidateOptions{Nodes: cfg.Nodes, BBCapacity: cfg.BBCapacity, TBF: cfg.TBFCapacity > 0}))
	}
	return res
}
