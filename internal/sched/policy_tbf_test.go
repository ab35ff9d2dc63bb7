package sched

import (
	"slices"
	"testing"

	"wasched/internal/des"
)

// TBFPolicy's reservation model must be exactly NodePolicy's: the token
// layer owns bandwidth, so the scheduler sees nodes only.
func TestTBFPolicyMatchesNodePolicy(t *testing.T) {
	running := []*Job{
		{ID: "r1", Nodes: 4, Limit: des.Hour, StartedAt: 0, Rate: 5e9},
		{ID: "r2", Nodes: 3, Limit: 2 * des.Hour, StartedAt: des.TimeFromSeconds(600), Rate: 9e9},
	}
	waiting := []*Job{
		{ID: "w1", Nodes: 8, Limit: des.Hour, Rate: 20e9},
		{ID: "w2", Nodes: 2, Limit: 30 * des.Minute, Rate: 1e9},
		{ID: "w3", Nodes: 16, Limit: des.Hour},
	}
	in := RoundInput{Now: des.TimeFromSeconds(1200), Running: running, Waiting: waiting, MeasuredThroughput: 12e9}

	tbf := TBFPolicy{TotalNodes: 10}.NewRound(in)
	node := NodePolicy{TotalNodes: 10}.NewRound(in)
	for _, j := range waiting {
		tt, tok := tbf.EarliestStart(j, in.Now)
		nt, nok := node.EarliestStart(j, in.Now)
		if tt != nt || tok != nok {
			t.Fatalf("job %s: tbf EarliestStart (%v,%v) != node (%v,%v)", j.ID, tt, tok, nt, nok)
		}
		if tok {
			tbf.Reserve(j, tt)
			node.Reserve(j, nt)
		}
	}
}

func TestTBFPolicyNames(t *testing.T) {
	if got := (TBFPolicy{TotalNodes: 4}).Name(); got != "tbf" {
		t.Fatalf("Name() = %q, want tbf", got)
	}
	if got := (TBFPolicy{TotalNodes: 4, Straggler: true}).Name(); got != "tbf-straggler" {
		t.Fatalf("straggler Name() = %q, want tbf-straggler", got)
	}
}

// The tbf family reserves nodes only; a Runner over it must agree with
// the freshly allocated rounds.
func TestTBFRunnerMatchesNewRound(t *testing.T) {
	for _, p := range []Policy{
		TBFPolicy{TotalNodes: 10},
		TBFPolicy{TotalNodes: 10, Straggler: true},
	} {
		rn := NewRunner(p)
		waiting := []*Job{{ID: "w1", Nodes: 6, Limit: des.Hour}}
		j := &Job{ID: "r1", Nodes: 8, Limit: des.Hour, StartedAt: 0}
		for _, in := range []RoundInput{
			{Now: 0, Running: []*Job{j}, Waiting: waiting},
			{Now: des.Time(des.Minute), Running: []*Job{j}, Waiting: waiting, UnavailableNodes: 1},
			{Now: des.Time(des.Hour), Waiting: waiting},
		} {
			got, _ := rn.RunRound(in, Options{})
			want, _ := RunRound(p, in, Options{})
			if !slices.Equal(got, want) {
				t.Fatalf("%s at %v: Runner %+v, NewRound %+v", p.Name(), in.Now, got, want)
			}
		}
	}
}
