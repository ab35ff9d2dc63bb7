package sched

import (
	"wasched/internal/des"
	"wasched/internal/restrack"
)

// Session carries a policy's reservation state across scheduling rounds,
// updated by job start/finish deltas instead of rebuilt from the running
// set every round — the backfill hot path at trace scale. BeginRound
// snapshots the carried base profiles into the reusable working round (one
// memmove each) and layers the per-round state (unavailable nodes, the
// measured-throughput guard, the adaptive split) on top, so the Round it
// returns decides identically to Policy.NewRound(in): the node profile
// arithmetic is exact (integer-valued floats), and the bandwidth deltas
// apply the same clamped per-job values the from-scratch build would, so
// any divergence is below the trackers' fit tolerance. The replay
// determinism test (internal/schedcheck) holds the two paths to
// byte-identical schedules over the whole differential corpus, and
// FuzzSessionMatchesNewRound holds them to identical decisions round by
// round.
//
// Sessions assume what trace replay guarantees: a job's request fields and
// estimates (Nodes, Limit, Rate, EstRuntime, Priority, BBBytes) stay fixed
// while it waits or runs, every start is reported through JobStarted and
// every finish through JobFinished. The live controller refreshes
// estimates before each round, so it keeps calling Policy.NewRound;
// NewSession returns nil for policies without session support and callers
// fall back.
type Session interface {
	// BeginRound returns this round's reservation state. The Round (and
	// any decisions referencing it) is valid until the next BeginRound.
	BeginRound(in RoundInput) Round
	// JobStarted records that j started at j.StartedAt (already set by the
	// caller), reserving [StartedAt, StartedAt+Limit) in the base state.
	JobStarted(j *Job)
	// JobFinished records that j left the running set at end, releasing
	// the unused tail [end, StartedAt+Limit) of its reservations.
	JobFinished(j *Job, end des.Time)
}

// NewSession returns an incremental Session for p, or nil when p has no
// session support (policies from outside the library fall back to
// per-round NewRound). It validates p exactly as NewRound does.
func NewSession(p Policy) Session {
	m, ok := modelOf(p)
	if !ok {
		return nil
	}
	s := &session{round: round{set: m.set, dims: m.set.dimensions()}}
	s.base = make([]restrack.Profile, len(s.round.dims))
	if m.adaptive != nil {
		s.adaptive = &adaptiveRound{p: *m.adaptive, at: restrack.NewBandwidthTracker(0)}
	}
	return s
}

// trimEvery bounds base-profile growth: every this many rounds the dead
// breakpoints before the current time are dropped. Trimming moves points
// without recomputing values, so it cannot perturb decisions.
const trimEvery = 64

// session is the incremental form of every library policy: one base
// profile per dimension of the policy's resource set carries the running
// set's reservations, and each round snapshots them into the working
// round before layering the per-round state on top.
type session struct {
	base     []restrack.Profile // parallel to round.dims
	round    round
	adaptive *adaptiveRound // nil unless the policy is workload-adaptive
	rounds   int
}

//waschedlint:hotpath
func (s *session) BeginRound(in RoundInput) Round {
	if s.rounds++; s.rounds%trimEvery == 0 {
		for i := range s.base {
			s.base[i].TrimBefore(in.Now)
		}
	}
	for i := range s.round.dims {
		s.round.dims[i].use.CopyFrom(&s.base[i])
	}
	s.round.open(in)
	if s.adaptive == nil {
		return &s.round
	}
	s.adaptive.begin(in, &s.round)
	return s.adaptive
}

//waschedlint:hotpath
func (s *session) JobStarted(j *Job) {
	end := j.StartedAt.Add(j.Limit)
	for i := range s.base {
		s.base[i].Add(j.StartedAt, end, s.round.set.demand(s.round.dims[i].kind, j))
	}
}

//waschedlint:hotpath
func (s *session) JobFinished(j *Job, end des.Time) {
	limEnd := j.StartedAt.Add(j.Limit)
	if end >= limEnd {
		return
	}
	for i := range s.base {
		s.base[i].Add(end, limEnd, -s.round.set.demand(s.round.dims[i].kind, j))
	}
}
