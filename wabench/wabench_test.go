package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/workload"
)

func encodeDES(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	w, err := newDESWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.Encode(&buf, w.jobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDESJobsRepeatPerSeed(t *testing.T) {
	for _, name := range []string{paperW1, w2Storage} {
		for seed := uint64(1); seed <= 3; seed++ {
			a, b := encodeDES(t, name, seed), encodeDES(t, name, seed)
			if !bytes.Equal(a, b) {
				t.Errorf("%s seed %d: two generations differ", name, seed)
			}
		}
	}
}

// TestW2StorageBBFixed checks that the burst-buffer demand of w2-storage
// is the same fixed set of classes for every seed: 150 write×4 plus 350
// write×2 jobs, each class all-BB. It also checks that every write job
// requests w2WriteLimit.
func TestW2StorageBBFixed(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		w, err := newDESWorkload(w2Storage, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, j := range w.jobs {
			s := j.Spec
			if (s.BBBytes > 0) != bbClasses[s.Name] {
				t.Fatalf("seed %d: job class %s has BB demand %g", seed, s.Name, s.BBBytes)
			}
			if s.BBBytes > 0 {
				n++
			}
			if s.Name != "sleep" && s.Limit != w2WriteLimit {
				t.Fatalf("seed %d: job class %s requests %v, want %v", seed, s.Name, s.Limit, w2WriteLimit)
			}
		}
		if n != 500 {
			t.Errorf("seed %d: %d BB jobs, want 500", seed, n)
		}
		if w.opts.Seed != seed {
			t.Errorf("seed %d: system seed %d", seed, w.opts.Seed)
		}
	}
}

func TestReplayJobsRepeatPerSeed(t *testing.T) {
	t.Chdir("..")
	enc := func(seed uint64) []byte {
		jobs, err := loadReplayJobs(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 119982 {
			t.Fatalf("seed %d: %d jobs, want 119982", seed, len(jobs))
		}
		b, err := json.Marshal(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := enc(1)
	if !bytes.Equal(a, enc(1)) {
		t.Error("seed 1: two conversions differ")
	}
	if bytes.Equal(a, enc(2)) {
		t.Error("seeds 1 and 2 convert to the same jobs; the seed does not reach the workload")
	}
}

// orderedPolicy is a policy that reorders the window, to check that the
// timing wrapper keeps that capability exactly when the inner policy has
// it.
type orderedPolicy struct{ sched.NodePolicy }

func (orderedPolicy) OrderWindow(sched.RoundInput, []*sched.Job) {}

func TestWrapPolicyForwards(t *testing.T) {
	var pt policyTimes
	adaptive := sched.AdaptivePolicy{TotalNodes: 4, ThroughputLimit: 1e9, TwoGroup: true}
	w := wrapPolicy(adaptive, &pt)
	if w.Name() != adaptive.Name() {
		t.Errorf("name %q, want %q", w.Name(), adaptive.Name())
	}
	if _, ok := w.(sched.WindowOrderer); ok {
		t.Error("wrapper of a non-ordering policy orders the window")
	}
	if _, ok := wrapPolicy(orderedPolicy{sched.NodePolicy{TotalNodes: 4}}, &pt).(sched.WindowOrderer); !ok {
		t.Error("wrapper of an ordering policy does not order the window")
	}

	in := sched.RoundInput{Now: 0}
	r := w.NewRound(in)
	ref := adaptive.NewRound(in)
	j := &sched.Job{ID: "j", Nodes: 2, Limit: 60 * des.Second, Rate: 1e8}
	got, gotOK := r.EarliestStart(j, 0)
	want, wantOK := ref.EarliestStart(j, 0)
	if got != want || gotOK != wantOK {
		t.Errorf("EarliestStart = %v,%v, want %v,%v", got, gotOK, want, wantOK)
	}
	r.Reserve(j, got)
	ref.Reserve(j, want)
	gd, ok := r.(sched.Diagnoser)
	if !ok {
		t.Fatal("wrapped round has no diagnostics")
	}
	if !reflect.DeepEqual(gd.Diagnostics(), ref.(sched.Diagnoser).Diagnostics()) {
		t.Errorf("diagnostics %v, want %v", gd.Diagnostics(), ref.(sched.Diagnoser).Diagnostics())
	}
	if pt.newRound.n != 1 || pt.earliestStart.n != 1 || pt.reserve.n != 1 {
		t.Errorf("counted %d rounds, %d earliest-start and %d reserve calls, want 1 each",
			pt.newRound.n, pt.earliestStart.n, pt.reserve.n)
	}
}

func TestParseTraces(t *testing.T) {
	text := []byte(`File: wabench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             wasched/internal/sos.(*Container).Trim
             wasched/internal/ldms.(*Daemon).flush
             wasched/internal/des.(*Engine).Step
-----------+-------------------------------------------------------
      1.01s   wasched/internal/restrack.fits
             wasched/internal/restrack.(*NodeTracker).EarliestFit (inline)
             wasched/internal/sched.(*adaptiveRound).EarliestStart
             wasched/internal/des.(*Engine).Step
-----------+-------------------------------------------------------
      10ms   runtime.bgsweep
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	const total = 1.05
	for pkg, want := range map[string]float64{"des": 1.04, "restrack": 1.01, "sched": 1.01, "sos": 0.03, "ldms": 0.03, "pfs": 0} {
		if d := got.cum[pkg] - want/total; d > 1e-9 || d < -1e-9 {
			t.Errorf("cum[%s] = %g, want %g", pkg, got.cum[pkg], want/total)
		}
	}
	for pkg, want := range map[string]float64{"restrack": 1.01, "sos": 0.03, "sched": 0, "des": 0} {
		if d := got.self[pkg] - want/total; d > 1e-9 || d < -1e-9 {
			t.Errorf("self[%s] = %g, want %g", pkg, got.self[pkg], want/total)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
