package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wasched/internal/des"
	"wasched/internal/experiments"
)

// stepTracer drives a DES system from outside, with the loop of
// System.RunToCompletion, and charges the host time of every engine step
// to the layer whose public counter advanced during it. Counters are
// checked in the order controller rounds, LDMS flushes, LDMS samples,
// token-bucket ticks, PFS recomputes; a step that advanced none of them
// (job starts and ends, trace sampling) is charged to des.other.
type stepTracer struct {
	sys *experiments.System
	pt  *policyTimes

	round, flush, sample, tick, recompute, other callStats
	roundSelf                                    time.Duration
	roundLat, flushLat, throughputLat            []time.Duration
	retainedSum                                  float64
}

// counters reads the public counters the tracer attributes steps by.
func (t *stepTracer) counters() [5]uint64 {
	var ticks uint64
	if t.sys.TBF != nil {
		ticks = t.sys.TBF.Ticks()
	}
	return [5]uint64{
		t.sys.Controller.Rounds(),
		t.sys.Monitor.Flushes(),
		t.sys.Monitor.Samples(),
		ticks,
		t.sys.FS.Recomputes(),
	}
}

func (t *stepTracer) runToCompletion(max des.Duration) error {
	sys := t.sys
	deadline := sys.Eng.Now().Add(max)
	for sys.Controller.DoneCount() < sys.Submitted() {
		if sys.Eng.Now() >= deadline {
			return fmt.Errorf("%d of %d jobs unfinished after %v",
				sys.Submitted()-sys.Controller.DoneCount(), sys.Submitted(), max)
		}
		before := t.counters()
		policyBefore := t.pt.total()
		start := time.Now()
		if !sys.Eng.Step() {
			return fmt.Errorf("simulation went idle with %d of %d jobs unfinished",
				sys.Submitted()-sys.Controller.DoneCount(), sys.Submitted())
		}
		d := time.Since(start)
		after := t.counters()
		switch {
		case after[0] != before[0]:
			t.round.add(d)
			t.roundLat = append(t.roundLat, d)
			t.roundSelf += d - (t.pt.total() - policyBefore)
			// R_now as the next round would read it: the SOS reads
			// beside the flush writes.
			start := time.Now()
			sys.Analytics.CurrentThroughput()
			t.throughputLat = append(t.throughputLat, time.Since(start))
		case after[1] != before[1]:
			t.flush.add(d)
			t.flushLat = append(t.flushLat, d)
			t.retainedSum += float64(sys.Monitor.Container().Len())
		case after[2] != before[2]:
			t.sample.add(d)
		case after[3] != before[3]:
			t.tick.add(d)
		case after[4] != before[4]:
			t.recompute.add(d)
		default:
			t.other.add(d)
		}
	}
	return nil
}

// layers returns the per-layer metrics of the traced run phase.
func (t *stepTracer) layers(events uint64, exec time.Duration) map[string]float64 {
	sys := t.sys
	m := map[string]float64{
		"des.events":                          float64(events),
		"des.ns_per_event":                    float64(exec.Nanoseconds()) / float64(events),
		"des.other.s":                         t.other.d.Seconds(),
		"ldms.flush.count":                    float64(sys.Monitor.Flushes()),
		"ldms.flush.s":                        t.flush.d.Seconds(),
		"ldms.flush.p50_us":                   micros(percentile(t.flushLat, 0.50)),
		"ldms.flush.p99_us":                   micros(percentile(t.flushLat, 0.99)),
		"ldms.sample.count":                   float64(sys.Monitor.Samples()),
		"ldms.sample.s":                       t.sample.d.Seconds(),
		"analytics.current_throughput.p50_us": micros(percentile(t.throughputLat, 0.50)),
		"analytics.current_throughput.p99_us": micros(percentile(t.throughputLat, 0.99)),
		"slurm.rounds":                        float64(sys.Controller.Rounds()),
		"slurm.round.s":                       t.round.d.Seconds(),
		"slurm.round.p50_us":                  micros(percentile(t.roundLat, 0.50)),
		"slurm.round.p99_us":                  micros(percentile(t.roundLat, 0.99)),
		"slurm.round_self.s":                  t.roundSelf.Seconds(),
		"sched.new_round.count":               float64(t.pt.newRound.n),
		"sched.new_round.s":                   t.pt.newRound.d.Seconds(),
		"sched.earliest_start.count":          float64(t.pt.earliestStart.n),
		"sched.earliest_start.s":              t.pt.earliestStart.d.Seconds(),
		"sched.reserve.count":                 float64(t.pt.reserve.n),
		"sched.reserve.s":                     t.pt.reserve.d.Seconds(),
		"pfs.recomputes":                      float64(sys.FS.Recomputes()),
		"pfs.step.s":                          t.recompute.d.Seconds(),
		"tbf.tick.s":                          t.tick.d.Seconds(),
	}
	if n := t.flush.n; n > 0 {
		m["sos.retained_records"] = t.retainedSum / float64(n)
	}
	if sys.TBF != nil {
		m["tbf.ticks"] = float64(sys.TBF.Ticks())
	}
	return m
}

// percentile returns the q-quantile of ds by the nearest-rank method.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
