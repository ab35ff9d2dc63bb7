package ldms

import (
	"fmt"
	"testing"

	"wasched/internal/des"
	"wasched/internal/sos"
)

// steadyDaemon returns a daemon over 16 nodes at the default 2 h
// retention whose container already holds a full window, plus a function
// that runs one aggregation period at simulated second i: every node's
// sample, then the aggregator's flush and trim.
func steadyDaemon(tb testing.TB) (*Daemon, func(i int), int) {
	tb.Helper()
	eng := des.NewEngine()
	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%02d", i)
	}
	cfg := DefaultConfig()
	cfg.PhaseJitter = false
	d, err := Start(eng, quietFS(tb, eng), sos.NewStore(), nodes, cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Stop)
	period := func(i int) {
		now := des.Time(i) * des.Time(cfg.SampleInterval)
		for _, n := range nodes {
			d.sample(n, now)
		}
		d.aggregate(now)
	}
	warm := int(cfg.Retention/cfg.SampleInterval) + 60
	for i := 0; i < warm; i++ {
		period(i)
	}
	return d, period, warm
}

func TestSteadyStateFlushAllocatesNothing(t *testing.T) {
	d, period, i := steadyDaemon(t)
	allocs := testing.AllocsPerRun(200, func() {
		period(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state sample+flush+trim allocates %.1f times per period, want 0", allocs)
	}
	if want := 16 * (int(DefaultConfig().Retention/des.Second) + 1); d.Container().Len() != want {
		t.Fatalf("retained %d records, want %d", d.Container().Len(), want)
	}
}

// BenchmarkFlush measures one aggregation period of the monitoring
// pipeline at the default 2 h retention: 16 node samples, the flush that
// appends them to SOS, and the retention trim, against a container that
// already holds 2 h of 1 Hz records per node.
func BenchmarkFlush(b *testing.B) {
	d, period, warm := steadyDaemon(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		period(warm + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(d.Container().Len()), "records")
}
