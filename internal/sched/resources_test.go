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

// Every invalid configuration must panic on the from-scratch path and on
// the session path with the same message: both validate in one place.
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
		session := panicMessage(func() { NewSession(p) })
		if round == "" {
			t.Errorf("%s: NewRound did not panic", name)
		}
		if session != round {
			t.Errorf("%s: NewSession panicked with %q, NewRound with %q", name, session, round)
		}
	}
}

// Policies from outside the library keep their own rounds and have no
// session, under a Tetris ordering too.
func TestForeignPolicyHasNoSession(t *testing.T) {
	stub := stubPolicy{NodePolicy{TotalNodes: 4}}
	for _, p := range []Policy{stub, TetrisPolicy{Inner: stub, TotalNodes: 4}} {
		if s := NewSession(p); s != nil {
			t.Errorf("NewSession(%s) = %T, want nil", p.Name(), s)
		}
	}
}
