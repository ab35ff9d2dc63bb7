package ldms

import (
	"math"
	"testing"

	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sos"
)

func quietFS(t testing.TB, eng *des.Engine) *pfs.FileSystem {
	t.Helper()
	cfg := pfs.DefaultConfig()
	cfg.NoiseSigma = 0
	cfg.BurstBoost = 1
	cfg.MDSLatency = 0
	cfg.MDSOpsPerSec = 1e9
	fs, err := pfs.New(eng, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{SampleInterval: 0, AggregateInterval: des.Second}).Validate(); err == nil {
		t.Fatal("zero sample interval must error")
	}
	if err := (Config{SampleInterval: des.Second, AggregateInterval: 0}).Validate(); err == nil {
		t.Fatal("zero aggregate interval must error")
	}
}

func TestStartValidation(t *testing.T) {
	eng := des.NewEngine()
	fs := quietFS(t, eng)
	store := sos.NewStore()
	if _, err := Start(eng, fs, store, nil, DefaultConfig(), 1); err == nil {
		t.Fatal("no nodes must error")
	}
	bad := DefaultConfig()
	bad.SampleInterval = 0
	if _, err := Start(eng, fs, store, []string{"n1"}, bad, 1); err == nil {
		t.Fatal("bad config must error")
	}
}

func TestSamplerRecordsCounters(t *testing.T) {
	eng := des.NewEngine()
	fs := quietFS(t, eng)
	store := sos.NewStore()
	cfg := DefaultConfig()
	cfg.PhaseJitter = false
	d, err := Start(eng, fs, store, []string{"n1", "n2"}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs.StartStream("n1", pfs.Write, 0, 4*pfs.GiB, nil) // 0.40 GiB/s for 10 s
	eng.Run(des.TimeFromSeconds(20))
	c := d.Container()
	recs := c.RangeBySource("n1", 0, des.TimeFromSeconds(21))
	if len(recs) < 18 {
		t.Fatalf("expected ~20 samples, got %d", len(recs))
	}
	// Counter at 5 s should be ~2 GiB written.
	r, ok := c.LastBefore("n1", des.TimeFromSeconds(5))
	if !ok {
		t.Fatal("no sample by 5s")
	}
	if got := r.Value(ColWriteBytes); math.Abs(got-2*pfs.GiB) > 0.45*pfs.GiB {
		t.Fatalf("write_bytes at 5s = %.2f GiB", got/pfs.GiB)
	}
	// Final counter equals total transferred.
	r, _ = c.LastBefore("n1", des.TimeFromSeconds(20))
	if got := r.Value(ColWriteBytes); math.Abs(got-4*pfs.GiB) > 16 {
		t.Fatalf("final write_bytes = %g", got)
	}
	if r.Value(ColWriteOps) != 1 || r.Value(ColReadOps) != 0 {
		t.Fatalf("ops: %v", r.Values)
	}
	// Idle node n2 reports zeros.
	r, _ = c.LastBefore("n2", des.TimeFromSeconds(20))
	if r.Value(ColWriteBytes) != 0 {
		t.Fatal("idle node must report zero")
	}
}

func TestAggregationDelaysVisibility(t *testing.T) {
	eng := des.NewEngine()
	fs := quietFS(t, eng)
	store := sos.NewStore()
	cfg := Config{SampleInterval: des.Second, AggregateInterval: 10 * des.Second, PhaseJitter: false}
	d, err := Start(eng, fs, store, []string{"n1"}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(des.TimeFromSeconds(9.5))
	if d.Container().Len() != 0 {
		t.Fatalf("samples visible before first aggregation: %d", d.Container().Len())
	}
	if d.Samples() < 9 {
		t.Fatalf("samples taken: %d", d.Samples())
	}
	eng.Run(des.TimeFromSeconds(10.5))
	if d.Container().Len() < 9 {
		t.Fatalf("samples must appear after aggregation: %d", d.Container().Len())
	}
	if d.Flushes() != 1 {
		t.Fatalf("flushes: %d", d.Flushes())
	}
}

func TestPhaseJitterSpreadsSamplers(t *testing.T) {
	eng := des.NewEngine()
	fs := quietFS(t, eng)
	store := sos.NewStore()
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	d, err := Start(eng, fs, store, nodes, DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(des.TimeFromSeconds(5))
	// With jitter on, the first sample times of the nodes must differ.
	first := map[des.Time]bool{}
	for _, n := range nodes {
		recs := d.Container().RangeBySource(n, 0, des.TimeFromSeconds(5))
		if len(recs) == 0 {
			t.Fatalf("node %s has no samples", n)
		}
		first[recs[0].At] = true
	}
	if len(first) < 3 {
		t.Fatalf("jitter did not spread sampler phases: %d distinct starts", len(first))
	}
}

func TestStopHaltsPipelineAndFlushes(t *testing.T) {
	eng := des.NewEngine()
	fs := quietFS(t, eng)
	store := sos.NewStore()
	cfg := Config{SampleInterval: des.Second, AggregateInterval: 60 * des.Second, PhaseJitter: false}
	d, _ := Start(eng, fs, store, []string{"n1"}, cfg, 1)
	eng.Run(des.TimeFromSeconds(5))
	d.Stop()
	if d.Container().Len() == 0 {
		t.Fatal("Stop must flush buffered samples")
	}
	n := d.Container().Len()
	eng.Run(des.TimeFromSeconds(100))
	if d.Container().Len() != n {
		t.Fatal("samplers must stop sampling after Stop")
	}
}

func TestRetentionTrimsOldRecords(t *testing.T) {
	eng := des.NewEngine()
	fs := quietFS(t, eng)
	store := sos.NewStore()
	cfg := Config{SampleInterval: des.Second, AggregateInterval: 10 * des.Second,
		Retention: 60 * des.Second}
	d, err := Start(eng, fs, store, []string{"n1"}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(des.TimeFromSeconds(600))
	// ~600 samples taken, but only the last ~60 s retained.
	if got := d.Container().Len(); got > 75 {
		t.Fatalf("retention did not trim: %d records", got)
	}
	recs := d.Container().RangeBySource("n1", 0, des.TimeFromSeconds(600))
	if len(recs) == 0 || recs[0].At < des.TimeFromSeconds(500) {
		t.Fatalf("old records survive: first at %v", recs[0].At)
	}
	// Negative retention is rejected.
	bad := cfg
	bad.Retention = -des.Second
	if bad.Validate() == nil {
		t.Fatal("negative retention must fail")
	}
}
