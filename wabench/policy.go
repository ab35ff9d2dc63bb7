package main

import (
	"time"

	"wasched/internal/des"
	"wasched/internal/sched"
)

// callStats accumulates the count and host time of one kind of call.
type callStats struct {
	n int
	d time.Duration
}

func (c *callStats) add(d time.Duration) {
	c.n++
	c.d += d
}

// policyTimes is what the timing wrapper measured in the sched layer.
type policyTimes struct {
	newRound, earliestStart, reserve callStats
}

func (p *policyTimes) total() time.Duration {
	return p.newRound.d + p.earliestStart.d + p.reserve.d
}

// timedPolicy times every call the controller makes into a sched.Policy
// and its rounds, and forwards everything else unchanged. It is used only
// on the DES workloads: the replayer picks its incremental session by the
// concrete policy type, so a wrapper there would silently measure the
// from-scratch path instead.
type timedPolicy struct {
	inner sched.Policy
	t     *policyTimes
}

// wrapPolicy returns the timing wrapper for p. The wrapper implements
// sched.WindowOrderer exactly when p does, so the backfill engine takes
// the same branch with and without it.
func wrapPolicy(p sched.Policy, t *policyTimes) sched.Policy {
	tp := timedPolicy{inner: p, t: t}
	if o, ok := p.(sched.WindowOrderer); ok {
		return orderingPolicy{timedPolicy: tp, o: o}
	}
	return tp
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) NewRound(in sched.RoundInput) sched.Round {
	start := time.Now()
	r := p.inner.NewRound(in)
	p.t.newRound.add(time.Since(start))
	return timedRound{inner: r, t: p.t}
}

// orderingPolicy is timedPolicy for a policy that reorders the window.
type orderingPolicy struct {
	timedPolicy
	o sched.WindowOrderer
}

func (p orderingPolicy) OrderWindow(in sched.RoundInput, window []*sched.Job) {
	p.o.OrderWindow(in, window)
}

type timedRound struct {
	inner sched.Round
	t     *policyTimes
}

func (r timedRound) EarliestStart(j *sched.Job, tmin des.Time) (des.Time, bool) {
	start := time.Now()
	t, ok := r.inner.EarliestStart(j, tmin)
	r.t.earliestStart.add(time.Since(start))
	return t, ok
}

func (r timedRound) Reserve(j *sched.Job, t des.Time) {
	start := time.Now()
	r.inner.Reserve(j, t)
	r.t.reserve.add(time.Since(start))
}

// Diagnostics forwards the inner round's diagnostics; every policy the
// benchmark wraps has rounds that provide them.
func (r timedRound) Diagnostics() map[string]float64 {
	if d, ok := r.inner.(sched.Diagnoser); ok {
		return d.Diagnostics()
	}
	return nil
}
