package sched

import (
	"fmt"
	"math"
	"testing"

	"wasched/internal/des"
)

// stubPolicy is a policy from outside the library: same rounds as
// NodePolicy, but not one of this package's types.
type stubPolicy struct{ NodePolicy }

func (stubPolicy) Name() string { return "stub" }

// panicMessage runs f and returns what it panicked with, "" if it did not.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// Every invalid configuration must panic in Policy.NewRound and in
// NewRunner with the same message: both validate in one place.
func TestInvalidConfigPanicsOnBothPaths(t *testing.T) {
	io := IOAwarePolicy{TotalNodes: 4, ThroughputLimit: 1}
	stub := stubPolicy{NodePolicy{TotalNodes: 4}}
	for _, p := range []Policy{
		NodePolicy{},
		IOAwarePolicy{TotalNodes: 0, ThroughputLimit: 1},
		IOAwarePolicy{TotalNodes: 1, ThroughputLimit: 0},
		AdaptivePolicy{TotalNodes: 0, ThroughputLimit: 1},
		AdaptivePolicy{TotalNodes: 1, ThroughputLimit: 0},
		AdaptivePolicy{TotalNodes: 1, ThroughputLimit: 1, QoSFraction: 1.5},
		TetrisPolicy{Inner: nil, TotalNodes: 4},
		TetrisPolicy{Inner: NodePolicy{TotalNodes: 4}, TotalNodes: 0},
		TetrisPolicy{Inner: NodePolicy{}, TotalNodes: 4},
		PlanPolicy{TotalNodes: 0},
		PlanPolicy{TotalNodes: 4, BBCapacity: -1},
		PlanPolicy{TotalNodes: 4, BBCapacity: math.NaN()},
		PlanPolicy{TotalNodes: 4, ThroughputLimit: -1},
		PlanPolicy{TotalNodes: 4, ThroughputLimit: math.NaN()},
		PlanPolicy{TotalNodes: 4, Horizon: -des.Second},
		BBAwarePolicy{Inner: nil, Capacity: 1},
		BBAwarePolicy{Inner: io, Capacity: -1},
		BBAwarePolicy{Inner: io, Capacity: math.NaN()},
		BBAwarePolicy{Inner: IOAwarePolicy{TotalNodes: 4}, Capacity: 1},
		BBAwarePolicy{Inner: stub, Capacity: 1},
		BBAwarePolicy{Inner: TetrisPolicy{Inner: stub, TotalNodes: 4}, Capacity: 1},
		BBAwarePolicy{Inner: PlanPolicy{TotalNodes: 4, BBCapacity: 1}, Capacity: 1},
		BBAwarePolicy{Inner: BBAwarePolicy{Inner: io, Capacity: 1}, Capacity: 1},
		TBFPolicy{},
	} {
		name := fmt.Sprintf("%T%+v", p, p)
		round := panicMessage(func() { p.NewRound(RoundInput{}) })
		runner := panicMessage(func() { NewRunner(p) })
		if round == "" {
			t.Errorf("%s: NewRound did not panic", name)
		}
		if runner != round {
			t.Errorf("%s: NewRunner panicked with %q, NewRound with %q", name, runner, round)
		}
	}
}

// A policy from outside the library builds its own round every time a
// Runner runs one, under a Tetris ordering too.
func TestRunnerAsksForeignPolicyForEveryRound(t *testing.T) {
	stub := &countingPolicy{Policy: stubPolicy{NodePolicy{TotalNodes: 4}}}
	for _, p := range []Policy{stub, TetrisPolicy{Inner: stub, TotalNodes: 4}} {
		stub.rounds = 0
		rn := NewRunner(p)
		in := RoundInput{Waiting: []*Job{{ID: "w", Nodes: 1, Limit: des.Minute}}}
		for i := 0; i < 3; i++ {
			if ds, _ := rn.RunRound(in, Options{}); len(ds) != 1 || !ds[0].StartNow {
				t.Fatalf("%s: decisions %+v, want w started", p.Name(), ds)
			}
		}
		if stub.rounds != 3 {
			t.Errorf("%s: NewRound called %d times over 3 rounds, want 3", p.Name(), stub.rounds)
		}
	}
}

// countingPolicy counts the rounds asked of the policy it wraps.
type countingPolicy struct {
	Policy
	rounds int
}

func (p *countingPolicy) NewRound(in RoundInput) Round {
	p.rounds++
	return p.Policy.NewRound(in)
}
