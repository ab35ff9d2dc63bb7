package main

import "testing"

// TestEntrySelection: allocs/op gate against the latest entry with
// per-policy numbers whatever its host, jobs/s only against the latest one
// from an equal host, and an unknown host gates jobs/s against nothing.
func TestEntrySelection(t *testing.T) {
	xeon := &Host{CPU: "Xeon", GOMAXPROCS: 2, GOARCH: "amd64"}
	policies := map[string]PolicyBench{"default": {JobsPerSec: 1, AllocsPerOp: 1}}
	history := []Entry{
		{Label: "xeon-old", Host: &Host{CPU: "Xeon", GOMAXPROCS: 2, GOARCH: "amd64"}, Policies: policies},
		{Label: "xeon-4", Host: &Host{CPU: "Xeon", GOMAXPROCS: 4, GOARCH: "amd64"}, Policies: policies},
		{Label: "xeon-no-policies", Host: &Host{CPU: "Xeon", GOMAXPROCS: 2, GOARCH: "amd64"}},
		{Label: "epyc", Host: &Host{CPU: "EPYC", GOMAXPROCS: 2, GOARCH: "amd64"}, Policies: policies},
		{Label: "unfingerprinted", Policies: policies},
		{Label: "seed"},
	}
	if got := lastWithPolicies(history); got == nil || got.Label != "unfingerprinted" {
		t.Fatalf("allocs baseline = %+v, want the latest entry with policies", got)
	}
	if got := lastOnHost(history, xeon); got == nil || got.Label != "xeon-old" {
		t.Fatalf("jobs/s baseline = %+v, want xeon-old", got)
	}
	if got := lastOnHost(history, &Host{CPU: "Xeon", GOMAXPROCS: 2, GOARCH: "arm64"}); got != nil {
		t.Fatalf("jobs/s baseline for an unseen host = %+v, want none", got)
	}
	if got := lastOnHost(history, nil); got != nil {
		t.Fatalf("jobs/s baseline for an unknown host = %+v, want none", got)
	}
	if got := lastWithPolicies(nil); got != nil {
		t.Fatalf("empty history gave %+v", got)
	}
}
