package sched

import (
	"math"

	"wasched/internal/des"
	"wasched/internal/restrack"
)

// resource names one reservable dimension of a resourceSet.
type resource uint8

const (
	resNodes       resource = iota // compute nodes (NT of Algorithms 2–4)
	resBandwidth                   // R_limit file-system bandwidth (LT)
	resBurstBuffer                 // shared burst-buffer bytes
)

// resourceSet is the reservation model every library policy builds its
// rounds from: the paper's reservation procedure (Algorithms 3 and 4) run
// over one usage profile per reservable resource — the plugin's "license
// tracker" per resource, extended after Kopanski & Rzadca to plan nodes
// and burst buffer jointly. Nodes are always present; the bandwidth and
// burst-buffer dimensions and the plan horizon are optional.
type resourceSet struct {
	nodes int
	// limit is R_limit in bytes/s; zero means no bandwidth dimension.
	limit float64
	// guard books the measured-throughput excess on the bandwidth
	// dimension every round (Algorithm 2 lines 7–8).
	guard bool
	// bb adds a burst-buffer dimension of bbCapacity bytes.
	bb         bool
	bbCapacity float64
	// horizon skips jobs whose earliest start falls after Now+horizon;
	// zero is unbounded.
	horizon des.Duration
	// plan marks PlanPolicy's set, whose rounds report the pool size.
	plan bool
}

// model is a library policy's reservation model: the resource set its
// rounds reserve against and, for the workload-adaptive policies, the
// target layer on top of it.
type model struct {
	set      resourceSet
	adaptive *AdaptivePolicy
}

// modelOf validates p and returns its reservation model: the one place
// both Policy.NewRound and NewRunner check a policy's configuration. ok is
// false for a policy from outside the library, and for TetrisPolicy over
// one; those build their own rounds.
func modelOf(p Policy) (m model, ok bool) {
	switch p := p.(type) {
	case NodePolicy:
		p.validate()
		return model{set: resourceSet{nodes: p.TotalNodes}}, true
	case TBFPolicy:
		// The token layer regulates bandwidth client-side, so admission
		// reserves nodes only.
		p.validate()
		return model{set: resourceSet{nodes: p.TotalNodes}}, true
	case IOAwarePolicy:
		p.validate()
		return model{set: resourceSet{nodes: p.TotalNodes, limit: p.ThroughputLimit, guard: !p.IgnoreMeasured}}, true
	case AdaptivePolicy:
		p.validate()
		return model{set: resourceSet{nodes: p.TotalNodes, limit: p.ThroughputLimit, guard: true}, adaptive: &p}, true
	case PlanPolicy:
		p.validate()
		return model{set: resourceSet{
			nodes: p.TotalNodes, limit: p.ThroughputLimit, guard: !p.IgnoreMeasured,
			bb: true, bbCapacity: p.BBCapacity, horizon: p.Horizon, plan: true,
		}}, true
	case BBAwarePolicy:
		m := p.validate()
		m.set.bb, m.set.bbCapacity = true, p.Capacity
		return m, true
	case TetrisPolicy:
		p.validate()
		return modelOf(p.Inner)
	}
	return model{}, false
}

// alloc returns empty round state for the model: the round over its set
// and, for the adaptive policies, the target layer (nil otherwise).
func (m *model) alloc() (*round, *adaptiveRound) {
	r := &round{set: m.set, dims: m.set.dimensions()}
	if m.adaptive == nil {
		return r, nil
	}
	return r, &adaptiveRound{p: *m.adaptive, at: restrack.NewBandwidthTracker(0)}
}

// newRound is Policy.NewRound for every library policy: freshly allocated
// round state, filled by the same rebuild a Runner applies to its reused
// buffers every round.
func newRound(p Policy, in RoundInput) Round {
	m, _ := modelOf(p)
	r, a := m.alloc()
	return rebuild(in, r, a)
}

// rebuild is InitializeReservationTracker (Algorithms 1, 2 and 5): it
// resets r (and the target layer a, when non-nil) and refills them from
// this round's running set, so every round reflects the estimates the
// controller refreshed for it. It returns the Round to run.
//
//waschedlint:hotpath
func rebuild(in RoundInput, r *round, a *adaptiveRound) Round {
	for i := range r.dims {
		d := &r.dims[i]
		d.use.Reset()
		for _, j := range in.Running {
			d.use.Add(in.Now, j.StartedAt.Add(j.Limit), r.set.demand(d.kind, j))
		}
	}
	r.open(in)
	if a == nil {
		return r
	}
	a.begin(in, r)
	return a
}

// dimensions returns the set's dimensions with empty usage, nodes first.
// The slice is sized exactly: Policy.NewRound allocates one per round.
func (s *resourceSet) dimensions() []dimension {
	n := 1
	if s.limit > 0 {
		n++
	}
	if s.bb {
		n++
	}
	dims := append(make([]dimension, 0, n), dimension{kind: resNodes, limit: float64(s.nodes)})
	if s.limit > 0 {
		dims = append(dims, dimension{kind: resBandwidth, limit: s.limit})
	}
	if s.bb {
		dims = append(dims, dimension{kind: resBurstBuffer, limit: s.bbCapacity})
	}
	return dims
}

// demand is j's requirement on the resource kind.
func (s *resourceSet) demand(kind resource, j *Job) float64 {
	switch kind {
	case resNodes:
		return float64(j.Nodes)
	case resBandwidth:
		return s.clampRate(j.Rate)
	}
	return clampNonNeg(j.BBBytes)
}

// clampRate caps a job's estimated rate at the throughput limit: no single
// job can demand more than the entire file system, and an estimate above
// the limit (possible under congested measurements) would otherwise pend
// the job forever.
func (s *resourceSet) clampRate(r float64) float64 {
	if r > s.limit {
		return s.limit
	}
	return clampNonNeg(r)
}

// clampNonNeg treats an invalid (negative or NaN) estimate as zero so that
// it cannot push a reservation or the target throughput R̃ negative, or
// poison them.
func clampNonNeg(r float64) float64 {
	if r < 0 || math.IsNaN(r) {
		return 0
	}
	return r
}

// dimension is one reservable resource of a round: the committed usage
// over time and the capacity it must stay within.
type dimension struct {
	kind  resource
	limit float64
	use   restrack.Profile
}

// round is the Round of every library policy.
type round struct {
	set     resourceSet
	dims    []dimension
	horizon des.Time
}

// open layers the per-round state over the running set's reservations:
// down nodes for the whole horizon, the measured-throughput guard and the
// plan horizon's cutoff.
func (r *round) open(in RoundInput) {
	if in.UnavailableNodes > 0 {
		r.dims[0].use.Add(in.Now, des.MaxTime, float64(in.UnavailableNodes))
	}
	r.horizon = des.MaxTime
	if r.set.horizon > 0 {
		r.horizon = in.Now.Add(r.set.horizon)
	}
	if r.set.limit <= 0 || !r.set.guard {
		return
	}
	// Algorithm 2 lines 7–8: when the measured throughput exceeds the sum
	// of the running jobs' estimates, reserve the difference so the
	// schedule cannot overload the file system on the strength of
	// under-estimates (e.g. jobs with no history yet). With running jobs
	// the excess is booked until the last of them ends; with none, the
	// traffic is residual/external and is booked over a short sliding
	// horizon instead (see MeasuredResidualHorizon).
	sum, end := 0.0, in.Now
	for _, j := range in.Running {
		sum += r.set.clampRate(j.Rate)
		if e := j.StartedAt.Add(j.Limit); e > end {
			end = e
		}
	}
	if in.MeasuredThroughput > sum {
		if len(in.Running) == 0 {
			end = in.Now.Add(MeasuredResidualHorizon)
		}
		r.dims[1].use.Add(in.Now, end, in.MeasuredThroughput-sum) // bandwidth follows nodes
	}
}

// EarliestStart implements Algorithm 4 over every dimension of the set:
// each dimension in turn moves the candidate start to its own earliest fit
// until all of them fit at the same instant. That instant is the least
// common fit, so the order the dimensions are visited in cannot change it.
// A start beyond the plan horizon reports infeasible: the engine skips the
// job without burning backfill budget and re-plans it next round.
func (r *round) EarliestStart(j *Job, tmin des.Time) (des.Time, bool) {
	var need [resBurstBuffer + 1]float64
	for i := range r.dims {
		d := &r.dims[i]
		if need[i] = r.set.demand(d.kind, j); need[i] > d.limit {
			return des.MaxTime, false
		}
	}
	t, settled := tmin, 0
	for i := 0; settled < len(r.dims); i = (i + 1) % len(r.dims) {
		d := &r.dims[i]
		u, ok := d.use.EarliestFit(t, j.Limit, need[i], d.limit)
		if !ok {
			return des.MaxTime, false
		}
		if u != t {
			t, settled = u, 0
		}
		settled++
	}
	if t > r.horizon {
		return des.MaxTime, false
	}
	return t, true
}

// Reserve implements Algorithm 3: j holds its demand on every dimension
// over [t, t+L_j).
func (r *round) Reserve(j *Job, t des.Time) {
	end := t.Add(j.Limit)
	for i := range r.dims {
		d := &r.dims[i]
		d.use.Add(t, end, r.set.demand(d.kind, j))
	}
}

// Diagnostics implements Diagnoser: the capacities the round reserves
// against (none for node-only sets).
func (r *round) Diagnostics() map[string]float64 {
	switch {
	case r.set.plan:
		return map[string]float64{"bb_capacity": r.set.bbCapacity, "limit": r.set.limit}
	case r.set.limit > 0:
		return map[string]float64{"limit": r.set.limit}
	}
	return nil
}
