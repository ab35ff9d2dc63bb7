package slurmconf

import (
	"math"
	"strings"
	"testing"

	"wasched/internal/des"
	"wasched/internal/slurm"
)

// FuzzParseSlurmConf feeds arbitrary text to Parse. Every configuration
// it accepts must carry finite, non-negative rates, fractions and
// weights, and non-negative durations: a NaN or an overflowed value must
// be a parse error, not a setting.
func FuzzParseSlurmConf(f *testing.F) {
	f.Add("Nodes=16\nSchedulerPolicy=adaptive\nThroughputLimit=20GiB\nTwoGroupQoSFraction=0.6\n")
	f.Add("SchedulerParameters=bf_interval=15,bf_max_job_test=50,bf_max_job_start=1\n")
	f.Add("PFSVolumeBandwidth=0.5GiB\nPFSStreamCap=512MiB\nPFSCongestionPerStream=0.05\nPFSNoiseSigma=0.1\n")
	f.Add("SampleInterval=2\nAggregateInterval=5\nThroughputWindow=60\nEstimatorAlpha=0.3\nLDMSRetention=7200\n")
	f.Add("PriorityWeightAge=10\nPriorityDecayHalfLife=3600\nPreemptMode=requeue\nPreemptExemptTime=1800\nRateQuantile=0.9\n")
	// Each of these once parsed without error.
	f.Add("PriorityWeightAge=NaN\nPFSCongestionPerStream=NaN\n")
	f.Add("ThroughputLimit=NaN\n")
	f.Add("ThroughputLimit=InfGiB\n")
	f.Add("SampleInterval=NaN\nSampleInterval=1e300\nLDMSRetention=1e300\n")
	f.Fuzz(func(t *testing.T, in string) {
		cfg, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"ThroughputLimit":        cfg.Scheduler.ThroughputLimit,
			"TwoGroupQoSFraction":    cfg.Scheduler.QoSFraction,
			"PFSVolumeBandwidth":     cfg.FS.VolumeBandwidth,
			"PFSStreamCap":           cfg.FS.StreamCap,
			"PFSServerCap":           cfg.FS.ServerCap,
			"PFSCongestionPerStream": cfg.FS.CongestionPerStream,
			"PFSNoiseSigma":          cfg.FS.NoiseSigma,
			"RateQuantile":           cfg.Control.RateQuantile,
			"EstimatorAlpha":         cfg.Analytics.Alpha,
		} {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v accepted from:\n%s", name, v, in)
			}
		}
		durations := map[string]des.Duration{
			"bf_interval":       cfg.Control.SchedInterval,
			"PreemptExemptTime": cfg.Control.Preemption.MaxStarvation,
			"SampleInterval":    cfg.Monitor.SampleInterval,
			"AggregateInterval": cfg.Monitor.AggregateInterval,
			"LDMSRetention":     cfg.Monitor.Retention,
			"ThroughputWindow":  cfg.Analytics.ThroughputWindow,
		}
		if m, ok := cfg.Control.Priority.(*slurm.MultifactorPriority); ok {
			for name, w := range map[string]float64{
				"PriorityWeightAge":       m.AgeWeight,
				"PriorityWeightJobSize":   m.SizeWeight,
				"PriorityWeightFairshare": m.FairShareWeight,
			} {
				if !(w >= 0) || math.IsInf(w, 0) {
					t.Fatalf("%s = %v accepted from:\n%s", name, w, in)
				}
			}
			durations["PriorityDecayHalfLife"] = m.HalfLife
		}
		for name, d := range durations {
			if d < 0 {
				t.Fatalf("%s = %v accepted from:\n%s", name, d, in)
			}
		}
	})
}
