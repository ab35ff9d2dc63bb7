package sched

import (
	"fmt"
	"math"

	"wasched/internal/des"
)

// PlanPolicy is the plan-based burst-buffer co-scheduling policy after
// Kopanski/Rzadca ("Plan-based Job Scheduling for Supercomputers with
// Shared Burst Buffers"): every backfill pass builds a greedy future plan
// that co-reserves compute nodes AND shared burst-buffer capacity, so a
// job whose BB demand does not fit now receives a future reservation
// instead of a doomed start-now decision. The simulated-annealing search
// of the original is replaced by the greedy first-fit plan the backfill
// engine already implements — the paper's own baseline variant — so the
// policy is one more resource set of the shared round.
//
// The BB profile models reservations over [start, start+Limit) only; the
// post-completion drain holds capacity a little longer, and the executor's
// admission check (internal/slurm, internal/schedcheck replay) covers that
// window by deferring starts that do not fit the live occupancy.
type PlanPolicy struct {
	// TotalNodes is the cluster size N.
	TotalNodes int
	// BBCapacity is the shared burst-buffer pool size in bytes. Jobs
	// demanding more than this can never run and are reported infeasible.
	BBCapacity float64
	// ThroughputLimit optionally co-reserves PFS bandwidth exactly as
	// IOAwarePolicy does; zero plans nodes + burst buffer only.
	ThroughputLimit float64
	// Horizon bounds the lookahead window: jobs whose planned start would
	// fall after Now+Horizon are skipped this round instead of reserved.
	// Zero means unbounded (plan the whole queue).
	Horizon des.Duration
	// IgnoreMeasured disables the measured-throughput guard (only
	// meaningful with a ThroughputLimit; ablation only).
	IgnoreMeasured bool
}

// Name implements Policy.
func (p PlanPolicy) Name() string { return "plan" }

func (p PlanPolicy) validate() {
	if p.TotalNodes <= 0 {
		panic(fmt.Sprintf("sched: PlanPolicy.TotalNodes must be positive, got %d", p.TotalNodes))
	}
	if p.BBCapacity < 0 || math.IsNaN(p.BBCapacity) {
		panic(fmt.Sprintf("sched: PlanPolicy.BBCapacity must be non-negative, got %g", p.BBCapacity))
	}
	if p.ThroughputLimit < 0 || math.IsNaN(p.ThroughputLimit) {
		panic(fmt.Sprintf("sched: PlanPolicy.ThroughputLimit must be non-negative, got %g", p.ThroughputLimit))
	}
	if p.Horizon < 0 {
		panic(fmt.Sprintf("sched: PlanPolicy.Horizon must be non-negative, got %d", p.Horizon))
	}
}

// NewRound implements Policy: node tracker + BB byte tracker (+ optional
// throughput tracker), all seeded with the running set's reservations. The
// earliest start is the first instant all of them fit, and a start beyond
// the lookahead horizon is skipped this round.
func (p PlanPolicy) NewRound(in RoundInput) Round { return newRound(p, in) }

// BBAwarePolicy is the opt-in burst-buffer hook for the other library
// policies: it adds a shared-BB dimension to the inner policy's resource
// set, so the inner policy's backfill reservations (nodes, bandwidth,
// adaptive target, Tetris ordering via its inner) additionally respect BB
// capacity. Unlike PlanPolicy it has no lookahead horizon of its own — the
// inner policy's semantics are preserved, only constrained.
type BBAwarePolicy struct {
	// Inner is the wrapped policy: any policy of this package that does
	// not reserve burst buffer itself.
	Inner Policy
	// Capacity is the shared burst-buffer pool size in bytes.
	Capacity float64
}

// Name implements Policy.
func (p BBAwarePolicy) Name() string { return "bb+" + p.Inner.Name() }

// validate panics on a bad configuration and returns the inner policy's
// reservation model. The inner policy must come from this package (its
// rounds are the shared resource-set round) and must not reserve burst
// buffer already.
func (p BBAwarePolicy) validate() model {
	if p.Inner == nil {
		panic("sched: BBAwarePolicy needs an inner policy")
	}
	if p.Capacity < 0 || math.IsNaN(p.Capacity) {
		panic(fmt.Sprintf("sched: BBAwarePolicy.Capacity must be non-negative, got %g", p.Capacity))
	}
	m, ok := modelOf(p.Inner)
	if !ok {
		panic(fmt.Sprintf("sched: BBAwarePolicy needs an inner policy from this package, got %T", p.Inner))
	}
	if m.set.bb {
		panic(fmt.Sprintf("sched: BBAwarePolicy cannot wrap %s, which already reserves burst buffer", p.Inner.Name()))
	}
	return m
}

// NewRound implements Policy: the inner policy's resource set plus a BB
// dimension seeded with the running set.
func (p BBAwarePolicy) NewRound(in RoundInput) Round { return newRound(p, in) }

// OrderWindow implements WindowOrderer by delegating to the inner policy
// when it is one (e.g. Tetris); otherwise the window order is untouched.
func (p BBAwarePolicy) OrderWindow(in RoundInput, window []*Job) {
	if o, ok := p.Inner.(WindowOrderer); ok {
		o.OrderWindow(in, window)
	}
}
