package sched

import (
	"math"
	"testing"

	"wasched/internal/des"
)

const (
	fuzzNodes = 8
	fuzzLimit = 100.0
)

func fuzzPolicies() []Policy {
	return []Policy{
		NodePolicy{TotalNodes: fuzzNodes},
		IOAwarePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit},
		AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit, TwoGroup: true},
		AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit, TwoGroup: false},
		TetrisPolicy{Inner: IOAwarePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit},
			TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit},
	}
}

// fuzzJobs decodes a byte stream into a sanitised running set and an
// adversarial waiting queue. Running jobs are well-formed (the controller
// guarantees that: it started them); waiting jobs are hostile — zero or
// negative node counts, non-positive limits, negative rates, zero runtimes —
// because the round engine is the first line of defence against a corrupted
// queue.
func fuzzJobs(data []byte, now des.Time) (running, waiting []*Job, rest []byte) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	nRun := int(data[0] % 4)
	data = data[1:]
	free := fuzzNodes // a real running set never oversubscribes the cluster
	for i := 0; i < nRun && len(data) >= 4 && free > 0; i++ {
		age := des.Duration(data[0]%120) * des.Second
		n := 1 + int(data[1])%free
		free -= n
		running = append(running, &Job{
			ID:        string(rune('A' + i)),
			Nodes:     n,
			Limit:     age + des.Duration(1+data[2]%240)*des.Second,
			StartedAt: now.Add(-age),
			Rate:      float64(data[3] % 150), // may exceed the limit
		})
		data = data[4:]
	}
	for i := 0; len(data) >= 6 && i < 24; i++ {
		waiting = append(waiting, &Job{
			ID:          string(rune('a' + i)),
			Fingerprint: string(rune('a' + i%3)),
			Nodes:       int(int8(data[0])),                           // adversarial: may be <= 0 or > N
			Limit:       des.Duration(int8(data[1])) * des.Second,     // adversarial: may be <= 0
			Rate:        float64(int8(data[2])),                       // adversarial: may be negative
			EstRuntime:  des.Duration(data[3]%200) * des.Second,       // may be 0 (falls back to Limit)
			Submit:      des.Time(data[4]%100) * des.Time(des.Second), // may be after now
			Priority:    int64(data[5] % 3),
		})
		data = data[6:]
	}
	return running, waiting, data
}

// FuzzRunRound feeds adversarial queues through one backfill round of every
// policy and asserts the round-level safety properties: no panic, one
// decision per examined job in exactly one state, no oversubscription by the
// started set, reservations strictly in the future, the backfill budget
// respected, and finite diagnostics.
func FuzzRunRound(f *testing.F) {
	f.Add([]byte{2, 10, 3, 60, 50, 1, 2, 120, 10, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 8, 1, 149, 255, 129, 200, 0, 99, 2, 4, 60, 5, 30, 10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		now := 300 * des.Time(des.Second)
		running, waiting, rest := fuzzJobs(data, now)
		measured := 0.0
		var opt Options
		if len(rest) > 0 {
			measured = float64(rest[0] % 200)
		}
		if len(rest) > 1 {
			opt.BackfillMax = int(rest[1] % 4)
		}
		if len(rest) > 2 {
			opt.MaxJobTest = int(rest[2] % 8)
		}
		SortQueue(waiting)
		in := RoundInput{Now: now, Running: running, Waiting: waiting, MeasuredThroughput: measured}

		for _, p := range fuzzPolicies() {
			decisions, state := RunRound(p, in, opt)

			want := len(waiting)
			if opt.MaxJobTest > 0 && want > opt.MaxJobTest {
				want = opt.MaxJobTest
			}
			if len(decisions) != want {
				t.Fatalf("%s: %d decisions for a %d-job window", p.Name(), len(decisions), want)
			}
			usedNodes := 0
			for _, j := range running {
				usedNodes += j.Nodes
			}
			reserved := 0
			for _, d := range decisions {
				states := 0
				if d.StartNow {
					states++
				}
				if d.Reserved {
					states++
				}
				if d.Skipped {
					states++
				}
				if states != 1 {
					t.Fatalf("%s: job %s in %d decision states", p.Name(), d.Job.ID, states)
				}
				if d.StartNow {
					if d.Job.Nodes < 1 || d.Job.Limit <= 0 {
						t.Fatalf("%s: started malformed job %s (nodes=%d limit=%v)",
							p.Name(), d.Job.ID, d.Job.Nodes, d.Job.Limit)
					}
					usedNodes += d.Job.Nodes
				}
				if d.Reserved {
					reserved++
					if d.PlannedStart <= now {
						t.Fatalf("%s: job %s reserved at %v, not after now=%v", p.Name(), d.Job.ID, d.PlannedStart, now)
					}
				}
			}
			if usedNodes > fuzzNodes {
				t.Fatalf("%s: %d nodes allocated on a %d-node cluster", p.Name(), usedNodes, fuzzNodes)
			}
			if opt.BackfillMax != Unlimited && reserved > opt.BackfillMax {
				t.Fatalf("%s: %d reservations with BackfillMax=%d", p.Name(), reserved, opt.BackfillMax)
			}
			if diag, ok := state.(Diagnoser); ok {
				for k, v := range diag.Diagnostics() {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s: diagnostic %q = %v", p.Name(), k, v)
					}
				}
			}
		}
	})
}

// FuzzTwoGroupSplit hammers the two-group split with adversarial queues —
// zero-node jobs, negative rates, zero runtimes, queues of one — across the
// QoS fraction range. The split must never panic and must return finite,
// non-negative threshold and zero-group load; the derived adjusted target
// R̃' in NewRound must come out finite and non-negative too.
func FuzzTwoGroupSplit(f *testing.F) {
	f.Add([]byte{1, 60, 10, 100}, 0.0)
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, 0.5)
	f.Add([]byte{4, 120, 156, 30, 1, 1, 1, 1}, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, frac float64) {
		if math.IsNaN(frac) || frac < 0 || frac > 1 {
			frac = 0.5
		}
		var waiting []*Job
		for i := 0; len(data) >= 4 && i < 32; i++ {
			waiting = append(waiting, &Job{
				ID:         string(rune('a' + i)),
				Nodes:      int(int8(data[0])),
				Limit:      des.Duration(int8(data[1])) * des.Second,
				Rate:       float64(int8(data[2])) * 1.5,
				EstRuntime: des.Duration(data[3]%250) * des.Second,
			})
			data = data[4:]
		}
		for _, twoGroup := range []bool{true, false} {
			p := AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit, TwoGroup: twoGroup, QoSFraction: frac}
			rStar, rZeroBar := p.twoGroupSplit(waiting, new(splitScratch))
			if math.IsNaN(rStar) || math.IsInf(rStar, 0) || rStar < 0 {
				t.Fatalf("twoGroupSplit rStar = %g for %d jobs (twoGroup=%v)", rStar, len(waiting), twoGroup)
			}
			if math.IsNaN(rZeroBar) || math.IsInf(rZeroBar, 0) || rZeroBar < 0 {
				t.Fatalf("twoGroupSplit rZeroBar = %g for %d jobs (twoGroup=%v)", rZeroBar, len(waiting), twoGroup)
			}
			if !twoGroup && (rStar != 0 || rZeroBar != 0) {
				t.Fatalf("naive split returned (%g, %g), want (0, 0)", rStar, rZeroBar)
			}
			round := p.NewRound(RoundInput{Now: 0, Waiting: waiting}).(*adaptiveRound)
			if at := round.at.Limit(); math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
				t.Fatalf("adjusted target %g (twoGroup=%v)", at, twoGroup)
			}
		}
	})
}

// fuzzBB is the burst-buffer pool of the BB-aware fuzz policies.
const fuzzBB = 100.0

// sessionFuzzPolicies is every library policy shape with a session.
func sessionFuzzPolicies() []Policy {
	io := IOAwarePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit}
	adaptive := AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit, TwoGroup: true}
	horizon := 120 * des.Second
	return []Policy{
		NodePolicy{TotalNodes: fuzzNodes},
		io,
		IOAwarePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit, IgnoreMeasured: true},
		adaptive,
		AdaptivePolicy{TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit},
		PlanPolicy{TotalNodes: fuzzNodes, BBCapacity: fuzzBB},
		PlanPolicy{TotalNodes: fuzzNodes, BBCapacity: fuzzBB, ThroughputLimit: fuzzLimit},
		PlanPolicy{TotalNodes: fuzzNodes, BBCapacity: fuzzBB, Horizon: horizon},
		PlanPolicy{TotalNodes: fuzzNodes, BBCapacity: fuzzBB, ThroughputLimit: fuzzLimit, Horizon: horizon},
		BBAwarePolicy{Inner: io, Capacity: fuzzBB},
		BBAwarePolicy{Inner: adaptive, Capacity: fuzzBB},
		TetrisPolicy{Inner: io, TotalNodes: fuzzNodes, ThroughputLimit: fuzzLimit},
		TBFPolicy{TotalNodes: fuzzNodes},
	}
}

// finishedJob is a job that started and left the running set before the
// fuzzed round.
type finishedJob struct {
	job *Job
	end des.Time
}

// fuzzSessionInput decodes a byte stream into one round's input, the jobs
// that already finished before it, and the engine options. Running and
// finished jobs are well-formed with fixed estimates (a session's
// contract); the queue is adversarial. Rates and burst-buffer bytes are
// small integers, so the session's start/finish deltas are exact and any
// divergence from the from-scratch round is a bookkeeping bug, not
// floating-point drift.
func fuzzSessionInput(data []byte) (in RoundInput, finished []finishedJob, opt Options) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	in.Now = 300 * des.Time(des.Second)
	in.UnavailableNodes = int(next() % 3)
	nRun, nFin, nWait := int(next()%5), int(next()%3), int(next()%16)
	opt.BackfillMax = int(next() % 4)
	opt.MaxJobTest = int(next() % 10)
	free := fuzzNodes - in.UnavailableNodes
	for i := 0; i < nRun && free > 0; i++ {
		age := des.Duration(next()%120) * des.Second
		n := 1 + int(next())%free
		free -= n
		in.Running = append(in.Running, &Job{
			ID:         string(rune('A' + i)),
			Nodes:      n,
			Limit:      des.Duration(1+next()%240) * des.Second, // may already be overrun
			StartedAt:  in.Now.Add(-age),
			Rate:       float64(next() % 150), // may exceed the limit
			EstRuntime: des.Duration(next()%200) * des.Second,
			BBBytes:    float64(next() % 60),
		})
	}
	for i := 0; i < nFin; i++ {
		j := &Job{
			ID:        string(rune('P' + i)),
			Nodes:     1 + int(next())%fuzzNodes,
			Limit:     des.Duration(1+next()%240) * des.Second,
			StartedAt: des.Time(next()%200) * des.Time(des.Second),
			Rate:      float64(next() % 150),
			BBBytes:   float64(next() % 60),
		}
		end := j.StartedAt.Add(des.Duration(next()%250) * des.Second)
		if end > in.Now {
			end = in.Now
		}
		finished = append(finished, finishedJob{job: j, end: end})
	}
	sum := 0.0
	for _, j := range in.Running {
		sum += j.Rate
	}
	// Centred on the running sum, so the guard both binds and stays off.
	in.MeasuredThroughput = sum + float64(int8(next()))
	if in.MeasuredThroughput < 0 {
		in.MeasuredThroughput = 0
	}
	for i := 0; i < nWait; i++ {
		in.Waiting = append(in.Waiting, &Job{
			ID:         string(rune('a' + i)),
			Nodes:      int(int8(next())) % (fuzzNodes + 2),     // may be <= 0 or > N
			Limit:      des.Duration(int8(next())) * des.Second, // may be <= 0
			Rate:       float64(int8(next())),                   // may be negative or above the limit
			EstRuntime: des.Duration(next()%200) * des.Second,
			Submit:     des.Time(next()%100) * des.Time(des.Second),
			Priority:   int64(next() % 3),
			BBBytes:    float64(int8(next())), // may be negative or above the pool
		})
	}
	SortQueue(in.Waiting)
	return in, finished, opt
}

// roundDiagnostics returns a round's diagnostics, nil when it has none.
func roundDiagnostics(r Round) map[string]float64 {
	if d, ok := r.(Diagnoser); ok {
		return d.Diagnostics()
	}
	return nil
}

// FuzzSessionMatchesNewRound holds every policy's incremental session to
// its from-scratch round: fed the running set through JobStarted (and
// earlier jobs through JobStarted/JobFinished), the session's round must
// make the same decisions and report the same diagnostics as
// Policy.NewRound rebuilt from the running set.
func FuzzSessionMatchesNewRound(f *testing.F) {
	f.Add([]byte{0, 2, 1, 6, 0, 0, 10, 3, 60, 50, 40, 30, 5, 1, 20, 90, 30, 100, 200, 2, 120, 10, 0, 0, 1, 20})
	f.Add([]byte{2, 4, 2, 12, 1, 5, 0, 1, 200, 149, 10, 59, 100, 1, 10, 1, 1, 120, 7, 200, 200})
	f.Add([]byte{1, 1, 0, 3, 3, 9, 30, 6, 100, 99, 60, 0, 156, 3, 200, 100, 255, 10, 50, 0, 9, 8, 120, 4, 60, 1, 2, 110})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, finished, opt := fuzzSessionInput(data)
		for _, p := range sessionFuzzPolicies() {
			s := NewSession(p)
			for _, fj := range finished {
				s.JobStarted(fj.job)
				s.JobFinished(fj.job, fj.end)
			}
			for _, j := range in.Running {
				s.JobStarted(j)
			}
			var rn Runner
			sr := s.BeginRound(in)
			got := rn.RunRound(p, sr, in, opt)
			want, fr := RunRound(p, in, opt)
			if len(got) != len(want) {
				t.Fatalf("%s: session made %d decisions, NewRound %d", p.Name(), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: decision %d: session %+v, NewRound %+v", p.Name(), i, got[i], want[i])
				}
			}
			gd, wd := roundDiagnostics(sr), roundDiagnostics(fr)
			if len(gd) != len(wd) {
				t.Fatalf("%s: session diagnostics %v, NewRound %v", p.Name(), gd, wd)
			}
			for k, w := range wd {
				if g, ok := gd[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: diagnostic %q: session %v, NewRound %v", p.Name(), k, g, w)
				}
			}
		}
	})
}
