package experiments

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
	"wasched/internal/workload"
)

// miniWorkload is a scaled-down Workload 1 (2 waves × (15 write×8 + 30
// sleep)) — large enough for write congestion to separate the policies,
// small enough for fast tests.
func miniWorkload() []slurm.JobSpec {
	var specs []slurm.JobSpec
	for wave := 0; wave < 2; wave++ {
		for i := 0; i < 15; i++ {
			specs = append(specs, workload.WriteJob(8))
		}
		for i := 0; i < 30; i++ {
			specs = append(specs, workload.SleepJob())
		}
	}
	return specs
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Options{}); err == nil {
		t.Fatal("zero options must fail")
	}
	opts := DefaultOptions(nil, 1)
	if _, err := Build(opts); err == nil {
		t.Fatal("nil policy must fail")
	}
	opts = DefaultOptions(sched.NodePolicy{TotalNodes: Nodes}, 1)
	opts.PFS.Volumes = -1
	if _, err := Build(opts); err == nil {
		t.Fatal("bad pfs config must fail")
	}
	opts = DefaultOptions(sched.NodePolicy{TotalNodes: Nodes}, 1)
	sys, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cluster.Size() != Nodes || sys.Controller == nil || sys.Recorder == nil {
		t.Fatal("incomplete system")
	}
}

func TestPretrainSeedsEstimates(t *testing.T) {
	sys, err := Build(DefaultOptions(sched.NodePolicy{TotalNodes: Nodes}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := Pretrain(sys, miniWorkload()); err != nil {
		t.Fatal(err)
	}
	w8, ok := sys.Analytics.Estimate("writex8")
	if !ok || w8.Rate <= 0 {
		t.Fatalf("writex8 estimate: %+v ok=%v", w8, ok)
	}
	// Isolated write×8 runs at roughly 8 × 0.35 GiB/s (collisions average
	// in); accept a generous band.
	if w8.Rate < 1.5*pfs.GiB || w8.Rate > 4.5*pfs.GiB {
		t.Fatalf("writex8 isolated rate = %.2f GiB/s outside sanity band", w8.Rate/pfs.GiB)
	}
	sleep, ok := sys.Analytics.Estimate("sleep")
	if !ok || sleep.Rate != 0 {
		t.Fatalf("sleep estimate: %+v ok=%v", sleep, ok)
	}
	if sleep.Runtime < 590*des.Second || sleep.Runtime > 615*des.Second {
		t.Fatalf("sleep runtime estimate: %v", sleep.Runtime)
	}
}

func TestRunWorkloadOrderingOnMiniW1(t *testing.T) {
	t.Parallel()
	specs := miniWorkload()
	def, err := RunWorkload(DefaultOptions(sched.NodePolicy{TotalNodes: Nodes}, 3), specs, false, "default")
	if err != nil {
		t.Fatal(err)
	}
	ad, err := RunWorkload(DefaultOptions(
		sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: true}, 3),
		specs, true, "adaptive")
	if err != nil {
		t.Fatal(err)
	}
	if def.Jobs != len(specs) || ad.Jobs != len(specs) {
		t.Fatalf("jobs: %d %d", def.Jobs, ad.Jobs)
	}
	if ad.Makespan >= def.Makespan {
		t.Fatalf("adaptive (%v) must beat default (%v) on the congested mini workload",
			ad.Makespan, def.Makespan)
	}
	if def.Timeouts != 0 || ad.Timeouts != 0 {
		t.Fatalf("no job should hit its limit: %d %d", def.Timeouts, ad.Timeouts)
	}
}

func TestRunWorkloadDeterminism(t *testing.T) {
	t.Parallel()
	specs := miniWorkload()
	opts := DefaultOptions(sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit15}, 5)
	a, err := RunWorkload(opts, specs, false, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(opts, specs, false, "b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.MedianWait != b.MedianWait {
		t.Fatalf("same seed must reproduce: %v vs %v", a.Makespan, b.Makespan)
	}
	opts.Seed = 6
	c, err := RunWorkload(opts, specs, false, "c")
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan {
		t.Log("different seed produced identical makespan (possible but unlikely)")
	}
}

func TestFig3FullOrdering(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full Workload 1 runs in -short mode")
	}
	// The headline reproduction: adaptive < io15 < io20 < default, with a
	// double-digit default-to-adaptive margin (paper: 26%).
	results := map[string]float64{}
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		res, err := RunFig3(key, 1)
		if err != nil {
			t.Fatal(err)
		}
		results[key] = res.Makespan
		if res.Jobs != 720 {
			t.Fatalf("fig3%s finished %d of 720 jobs", key, res.Jobs)
		}
	}
	if !(results["d"] < results["c"] && results["c"] < results["b"] && results["b"] < results["a"]) {
		t.Fatalf("ordering broken: %v", results)
	}
	gain := 1 - results["d"]/results["a"]
	if gain < 0.15 || gain > 0.40 {
		t.Fatalf("adaptive gain %.1f%% outside the calibrated band (paper: 26%%)", 100*gain)
	}
	// Untrained adaptive must land within a few percent of pre-trained.
	diff := results["e"]/results["d"] - 1
	if diff < -0.10 || diff > 0.10 {
		t.Fatalf("untrained adaptive deviates %.1f%% from pre-trained", 100*diff)
	}
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	cfg := DefaultFig4Config()
	cfg.MaxJobs = 15
	cfg.Warmup = 30 * des.Second
	cfg.Measure = 180 * des.Second
	points, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("points: %d", len(points))
	}
	med := func(k int) float64 { return points[k].Box.Median }
	if med(0) != 0 {
		t.Fatalf("0 jobs must measure 0, got %v", med(0))
	}
	if !(med(1) > 1 && med(2) > med(1)) {
		t.Fatalf("rising region broken: %v %v", med(1), med(2))
	}
	peak := 0.0
	for k := 0; k <= 15; k++ {
		if med(k) > peak {
			peak = med(k)
		}
	}
	if peak < 4.5 || peak > 16 {
		t.Fatalf("peak median %.2f GiB/s outside the calibrated band", peak)
	}
	if med(15) >= peak {
		t.Fatal("heavy concurrency must sit below the peak (congestion)")
	}
	// Boxes must show spread (noise on).
	if points[3].Box.Max-points[3].Box.Min < 0.1 {
		t.Fatalf("box at 3 jobs shows no spread: %+v", points[3].Box)
	}
}

func TestFig4Validation(t *testing.T) {
	cfg := DefaultFig4Config()
	cfg.MaxJobs = -1
	if _, err := RunFig4(cfg); err == nil {
		t.Fatal("negative MaxJobs must fail")
	}
	cfg = DefaultFig4Config()
	cfg.Measure = 0
	if _, err := RunFig4(cfg); err == nil {
		t.Fatal("zero measure window must fail")
	}
}

func TestFig6SmallRepeats(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("repeated Workload 2 runs in -short mode")
	}
	rows, err := RunFig6(Fig6Config{Repeats: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].VsBase != 0 {
		t.Fatal("base row must have zero relative change")
	}
	// The adaptive rows must beat the default's median (paper Fig. 6).
	for _, i := range []int{3, 4} {
		if rows[i].Swarm.Median >= rows[0].Swarm.Median {
			t.Fatalf("adaptive row %d (%v) must beat default (%v)",
				i, rows[i].Swarm.Median, rows[0].Swarm.Median)
		}
	}
	var buf bytes.Buffer
	PrintFig6(&buf, rows)
	if !strings.Contains(buf.String(), "vs base") {
		t.Fatal("PrintFig6 output")
	}
}

func TestVariantLookup(t *testing.T) {
	if _, err := RunFig3("z", 1); err == nil {
		t.Fatal("unknown variant must fail")
	}
	if _, err := RunFig5("z", 1); err == nil {
		t.Fatal("unknown variant must fail")
	}
	if len(Fig3Variants()) != 5 || len(Fig5Variants()) != 5 {
		t.Fatal("five panels each")
	}
}

func TestRegistry(t *testing.T) {
	reg := Registry()
	for _, name := range []string{
		"fig3", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
		"fig4", "fig5", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig6",
		"ablation-two-group", "ablation-guard", "ablation-backfill",
		"ablation-licenses", "ablation-qos", "ablation-bursty",
		"ablation-submission", "ablation-degradation", "ablation-ordering",
		"sweep-limit", "ablation-plateau", "ablation-checkpoint",
	} {
		e, ok := reg[name]
		if !ok {
			t.Fatalf("experiment %q missing from registry", name)
		}
		if e.Run == nil || e.Description == "" {
			t.Fatalf("experiment %q incomplete", name)
		}
	}
	names := Names()
	if len(names) != len(reg) {
		t.Fatal("Names/Registry mismatch")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names must be sorted")
		}
	}
	if !strings.Contains(WorkloadSizes(), "workload1=720") {
		t.Fatalf("WorkloadSizes: %s", WorkloadSizes())
	}
}

func TestAblationBackfillRuns(t *testing.T) {
	t.Parallel()
	rows, err := AblationBackfillMax(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Result.Jobs != len(workload.Mixed()) {
			t.Fatalf("%s finished %d jobs", r.Label, r.Result.Jobs)
		}
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows)
	if !strings.Contains(buf.String(), "EASY") {
		t.Fatal("ablation print")
	}
}

func TestAblationGuardReducesCongestionExposure(t *testing.T) {
	t.Parallel()
	rows, err := AblationMeasuredGuard(1)
	if err != nil {
		t.Fatal(err)
	}
	on := rows[0].Result.MeanClassRuntime("writex8")
	off := rows[1].Result.MeanClassRuntime("writex8")
	if on <= 0 || off <= 0 {
		t.Fatalf("write runtimes: on=%v off=%v", on, off)
	}
	// The guard throttles admission when the measured throughput belies
	// the (deliberately lying) estimates, so write jobs suffer less
	// congestion.
	if on >= off {
		t.Fatalf("guard ON mean writer runtime (%v) must undercut OFF (%v)", on, off)
	}
	if rows[0].Extra == "" {
		t.Fatal("guard rows must carry the runtime observation")
	}
}

func TestFig4RunnerReport(t *testing.T) {
	var buf bytes.Buffer
	// Use the registry entry to exercise the report path with a light
	// configuration via the direct API instead (the registry runner uses
	// the full windows; too slow for unit tests).
	cfg := DefaultFig4Config()
	cfg.MaxJobs = 2
	cfg.Warmup = 10 * des.Second
	cfg.Measure = 60 * des.Second
	points, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points: %d", len(points))
	}
	_ = buf
}

func TestAblationSubmissionProtocols(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("four full Workload 1 runs in -short mode")
	}
	rows, err := AblationSubmission(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	// The headline result must be robust to the submission protocol:
	// every protocol's makespan within a few percent of batch.
	for _, r := range rows[1:] {
		if r.VsBase < -0.05 || r.VsBase > 0.05 {
			t.Fatalf("%s deviates %.1f%% from batch submission", r.Label, 100*r.VsBase)
		}
	}
}

func TestAblationDegradationAdaptiveAbsorbs(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("two full Workload 1 runs in -short mode")
	}
	rows, err := AblationDegradation(1)
	if err != nil {
		t.Fatal(err)
	}
	def, ad := rows[0].Result, rows[1].Result
	if ad.Makespan >= def.Makespan {
		t.Fatalf("adaptive (%v) must absorb the degradation better than default (%v)",
			ad.Makespan, def.Makespan)
	}
	// Default's congested writes blow through their limits during the
	// event; the adaptive scheduler keeps everything inside the limits.
	if ad.Timeouts > def.Timeouts {
		t.Fatalf("timeouts: adaptive %d vs default %d", ad.Timeouts, def.Timeouts)
	}
}

func TestByteConservationAcrossPolicies(t *testing.T) {
	t.Parallel()
	// Whatever the scheduler does, every byte of every write job must
	// reach the file system exactly once: 30 write×8 jobs × 80 GiB.
	specs := miniWorkload()
	const wantBytes = 30 * 80 * pfs.GiB
	policies := []sched.Policy{
		sched.NodePolicy{TotalNodes: Nodes},
		sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20},
		sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit15},
		sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: true},
		sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: false},
		sched.TetrisPolicy{Inner: sched.IOAwarePolicy{TotalNodes: Nodes, ThroughputLimit: Limit15},
			TotalNodes: Nodes, ThroughputLimit: Limit15},
	}
	for _, p := range policies {
		sys, err := Build(DefaultOptions(p, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SubmitAll(specs); err != nil {
			t.Fatal(err)
		}
		sys.Start()
		if err := sys.RunToCompletion(1000 * des.Hour); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := sys.FS.TotalCounters().WriteBytes
		if diff := got - wantBytes; diff < -1e4 || diff > 1e4 {
			t.Fatalf("%s: wrote %.3f GiB, want %.3f", p.Name(), got/pfs.GiB, wantBytes/pfs.GiB)
		}
		// No write job may be killed at its limit under healthy conditions.
		for _, j := range sys.Controller.DoneJobs() {
			if j.State != slurm.StateCompleted {
				t.Fatalf("%s: job %s ended %v", p.Name(), j.ID, j.State)
			}
		}
	}
}

func TestNodeCapacityNeverExceeded(t *testing.T) {
	t.Parallel()
	// The recorder samples BusyNodes every 5 s; no sample may exceed N.
	res, err := RunWorkload(DefaultOptions(
		sched.AdaptivePolicy{TotalNodes: Nodes, ThroughputLimit: Limit20, TwoGroup: true}, 11),
		miniWorkload(), true, "capacity")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Recorder.BusyNodes.Values {
		if v > float64(Nodes) {
			t.Fatalf("sample %d: %v busy nodes on a %d-node cluster", i, v, Nodes)
		}
	}
}

func TestSweepLimitUShapeAndAdaptiveNearOptimum(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("nine full Workload 1 runs in -short mode")
	}
	rows, err := SweepLimit(1)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rows)
	fixed := rows[:n-1]
	adaptive := rows[n-1].Result.Makespan
	best, worst := fixed[0].Result.Makespan, fixed[0].Result.Makespan
	for _, r := range fixed {
		if r.Result.Makespan < best {
			best = r.Result.Makespan
		}
		if r.Result.Makespan > worst {
			worst = r.Result.Makespan
		}
	}
	// U-shape: both extremes must be clearly worse than the interior
	// optimum.
	lo := fixed[0].Result.Makespan
	hi := fixed[len(fixed)-1].Result.Makespan
	if lo < best*1.05 || hi < best*1.05 {
		t.Fatalf("no U-shape: lo=%v hi=%v best=%v", lo, hi, best)
	}
	// The adaptive scheduler must land within a few percent of the best
	// hand-tuned fixed limit — the paper's "no manual tuning" claim.
	if adaptive > best*1.05 {
		t.Fatalf("adaptive (%v) not near the tuned optimum (%v)", adaptive, best)
	}
	_ = worst
}

func TestAblationPlateauTwoGroupWins(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("three full Workload 2 runs in -short mode")
	}
	rows, err := AblationPlateau(1)
	if err != nil {
		t.Fatal(err)
	}
	twoGroup, naive := rows[0].Result, rows[1].Result
	if twoGroup.Makespan >= naive.Makespan {
		t.Fatalf("two-group (%v) must beat naive (%v) in the plateau regime",
			twoGroup.Makespan, naive.Makespan)
	}
	if twoGroup.IdleNodeSeconds >= naive.IdleNodeSeconds {
		t.Fatalf("two-group idle (%v) must undercut naive idle (%v)",
			twoGroup.IdleNodeSeconds, naive.IdleNodeSeconds)
	}
}

func TestWriteFullReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	if os.Getenv("WASCHED_FULL_REPORT_TEST") == "" {
		t.Skip("set WASCHED_FULL_REPORT_TEST=1 to run the ~2 min full-report smoke test")
	}
	var buf bytes.Buffer
	if err := WriteFullReport(&buf, RunOptions{Seed: 1}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "fig6", "ablation-two-group", "sweep-limit"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestVerifyClaimsHold(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs the core experiments; skipped in -short mode")
	}
	claims, err := Verify(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: %s (measured %s)", c.ID, c.Text, c.Actual)
		}
	}
}

func TestRegistryRunnersProduceReports(t *testing.T) {
	t.Parallel()
	reg := Registry()
	dir := t.TempDir()
	// fig3d exercises the single-panel runner with CSV export.
	var buf bytes.Buffer
	if err := reg["fig3d"].Run(&buf, RunOptions{Seed: 1, CSVDir: dir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lustre_throughput") {
		t.Fatalf("fig3d report:\n%s", buf.String())
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("csv exports: %d", len(entries))
	}
	// fig4 runner prints the box table and the median bars.
	buf.Reset()
	if err := reg["fig4"].Run(&buf, RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"median", "medians as bars", "15 |"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("fig4 report missing %q", want)
		}
	}
	// A fast ablation runner end to end.
	buf.Reset()
	if err := reg["ablation-guard"].Run(&buf, RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "guard ON") || !strings.Contains(buf.String(), "vs base") {
		t.Fatalf("ablation report:\n%s", buf.String())
	}
}

func TestFigAllRunnerAggregates(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("five full Workload 1 runs in -short mode")
	}
	var buf bytes.Buffer
	if err := Registry()["fig3"].Run(&buf, RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig3a", "fig3e", "vs base", "-2", "busy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 aggregate missing %q", want)
		}
	}
}
