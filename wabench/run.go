package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"

	"wasched/internal/des"
	"wasched/internal/experiments"
	"wasched/internal/pfs"
	"wasched/internal/schedcheck"
	"wasched/internal/slurm"
)

// mode selects how a run's run phase is measured.
type mode int

const (
	// plain runs the program exactly as its users do; the end-to-end
	// metrics come from plain runs.
	plain mode = iota
	// traced steps the engine from the benchmark and times the calls into
	// each layer; the per-layer metrics come from traced runs.
	traced
	// profiled is a plain run under the CPU profiler.
	profiled
)

// maxSim caps a DES run's simulated time, as experiments.RunWorkload does.
const maxSim = 1000 * des.Hour

// run is the outcome of one set-up plus one run phase.
type run struct {
	// Host times are CPU times of the process (user plus system, all
	// threads): unlike wall-clock time they do not count the time other
	// tenants of a shared machine held the CPU. The wall-clock times are
	// kept for the per-run log.
	setup, setupWall time.Duration // before the first simulated event
	parse            time.Duration // part of setup spent producing the job list
	exec, execWall   time.Duration // the run phase

	attempted, completed, failed int
	makespan, meanWait           float64 // simulated seconds
	allocBytes                   uint64  // heap allocated during the run phase
	liveHeap                     uint64  // heap live after the run, system still reachable
	gcCycles                     uint32
	gcCPU                        float64 // seconds
	digest                       string
	violations                   error
	layers                       map[string]float64 // traced runs only
}

func (r run) jobsPerSec() float64 { return float64(r.completed) / r.exec.Seconds() }

// stopwatch measures an interval in CPU and wall-clock time.
type stopwatch struct {
	cpu  time.Duration
	wall time.Time
}

func startWatch() stopwatch { return stopwatch{cpu: cpuTime(), wall: time.Now()} }

func (s stopwatch) elapsed() (cpu, wall time.Duration) {
	return cpuTime() - s.cpu, time.Since(s.wall)
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the runtime's allocation and GC accounting at one instant.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	return memSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, gcCPU: gcCPUSample[0].Value.Float64()}
}

// measure runs fn as the run phase: it settles the heap first, reads the
// runtime's accounting around fn, profiles fn when asked, and records
// what is still live after a forced collection while keep is reachable.
func measure(r *run, m mode, profPath string, fn func() error, keep ...any) error {
	runtime.GC()
	before := readMem()
	stopProfile := func() error { return nil }
	if m == profiled {
		var err error
		if stopProfile, err = startProfile(profPath); err != nil {
			return err
		}
	}
	w := startWatch()
	err := fn()
	r.exec, r.execWall = w.elapsed()
	if perr := stopProfile(); err == nil {
		err = perr
	}
	after := readMem()
	r.allocBytes = after.totalAlloc - before.totalAlloc
	r.gcCycles = after.numGC - before.numGC
	r.gcCPU = after.gcCPU - before.gcCPU
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(keep)
	return err
}

// startProfile starts the CPU profiler writing to path and returns the
// function that stops it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// setupDES builds, pre-trains and submits a DES workload, wrapping the
// policy in the timing wrapper when pt is non-nil.
func setupDES(name string, seed uint64, pt *policyTimes) (*experiments.System, desWorkload, run, error) {
	var r run
	runtime.GC()
	watch := startWatch()
	w, err := newDESWorkload(name, seed)
	if err != nil {
		return nil, w, r, err
	}
	specs := w.specs()
	r.parse, _ = watch.elapsed()
	opts := w.opts
	if pt != nil {
		opts.Policy = wrapPolicy(opts.Policy, pt)
	}
	sys, err := experiments.Build(opts)
	if err != nil {
		return nil, w, r, err
	}
	if err := experiments.Pretrain(sys, specs); err != nil {
		return nil, w, r, err
	}
	if err := sys.SubmitAll(specs); err != nil {
		return nil, w, r, err
	}
	sys.Start()
	r.setup, r.setupWall = watch.elapsed()
	return sys, w, r, nil
}

// runDES makes one set-up and run of a DES workload and checks it the way
// experiments.RunWorkload does.
func runDES(name string, seed uint64, m mode, profPath string) (run, error) {
	var pt *policyTimes
	if m == traced {
		pt = &policyTimes{}
	}
	sys, w, r, err := setupDES(name, seed, pt)
	if err != nil {
		return r, err
	}
	fired := sys.Eng.Fired()
	var tr *stepTracer
	err = measure(&r, m, profPath, func() error {
		if m == traced {
			tr = &stepTracer{sys: sys, pt: pt}
			return tr.runToCompletion(maxSim)
		}
		return sys.RunToCompletion(maxSim)
	}, sys)
	unfinished := err != nil
	r.attempted = sys.Submitted()
	waits := 0.0
	for _, j := range sys.Controller.DoneJobs() {
		waits += j.WaitTime().Seconds()
		if j.State == slurm.StateCompleted {
			r.completed++
		}
	}
	if n := sys.Controller.DoneCount(); n > 0 {
		r.meanWait = waits / float64(n)
	}
	r.makespan = sys.Makespan().Seconds()
	r.digest = desDigest(sys.Controller.DoneJobs())
	res := validateDES(sys, w.limit)
	r.violations = res.Err()
	if unfinished && r.violations == nil {
		r.violations = err
	}
	r.failed = r.attempted - r.completed
	if r.violations != nil {
		r.failed = r.attempted
	}
	if tr != nil {
		r.layers = tr.layers(sys.Eng.Fired()-fired, r.exec)
		r.layers["workload.parse_s"] = r.parse.Seconds()
		if sys.BB != nil {
			r.layers["bb.deferred"] = float64(sys.Controller.BBDeferred())
			r.layers["bb.drained_gib"] = sys.BB.TotalDrained() / pfs.GiB
		}
	}
	return r, nil
}

// validateDES applies the schedule validation experiments.RunWorkload
// applies, against the R_limit of the unwrapped policy: the validator
// would find no limit on the timing wrapper, and so skip the throughput
// check, if it were asked the controller's policy.
func validateDES(sys *experiments.System, limit float64) schedcheck.Result {
	vopts := schedcheck.ValidateOptions{
		Nodes:           sys.Cluster.Size(),
		ThroughputLimit: limit,
		TBF:             sys.TBF != nil,
	}
	if sys.BB != nil {
		vopts.BBCapacity = sys.BB.Capacity()
	}
	res := schedcheck.ValidateRun(sys.Recorder, vopts)
	if sys.BB != nil {
		res.Merge(schedcheck.ValidateBB(sys.BB.Ledger(), sys.BB.Capacity()))
	}
	if sys.TBF != nil {
		res.Merge(schedcheck.ValidateTBF(sys.TBF.Ledger()))
	}
	return res
}

// setupReplay parses and converts the replay trace.
func setupReplay(seed uint64) ([]schedcheck.SimJob, run, error) {
	var r run
	runtime.GC()
	watch := startWatch()
	jobs, err := loadReplayJobs(seed)
	r.setup, r.setupWall = watch.elapsed()
	r.parse = r.setup
	return jobs, r, err
}

// runReplay makes one set-up and run of replay-120k. The replay has no
// timing wrapper (see timedPolicy): a traced run differs from a plain one
// only in reading the replayer's counters afterwards.
func runReplay(seed uint64, m mode, profPath string) (run, error) {
	jobs, r, err := setupReplay(seed)
	if err != nil {
		return r, err
	}
	cfg := replayConfig()
	var res *schedcheck.ReplayResult
	if err := measure(&r, m, profPath, func() error {
		res = schedcheck.Replay(jobs, cfg)
		return nil
	}, jobs, &res); err != nil {
		return r, err
	}
	r.attempted = len(jobs)
	r.completed = len(res.Jobs)
	r.violations = res.Check.Err()
	if r.violations == nil && r.completed != r.attempted {
		r.violations = fmt.Errorf("replay completed %d of %d jobs", r.completed, r.attempted)
	}
	waits := 0.0
	keys := make([]string, 0, len(res.Jobs))
	for _, j := range res.Jobs {
		waits += j.Start - j.Submit
		keys = append(keys, j.ID+" "+strconv.FormatFloat(j.Start, 'g', -1, 64)+" "+strconv.FormatFloat(j.End, 'g', -1, 64))
	}
	if len(res.Jobs) > 0 {
		r.meanWait = waits / float64(len(res.Jobs))
	}
	r.makespan = res.Makespan.Seconds()
	r.digest = digest(keys)
	r.failed = r.attempted - r.completed
	if r.violations != nil {
		r.failed = r.attempted
	}
	if m == traced {
		r.layers = map[string]float64{
			"schedcheck.rounds":       float64(res.Rounds),
			"schedcheck.us_per_round": r.exec.Seconds() * 1e6 / float64(res.Rounds),
			"workload.parse_s":        r.parse.Seconds(),
		}
	}
	return r, nil
}

// desDigest hashes each finished job's start and end.
func desDigest(jobs []*slurm.JobRecord) string {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = fmt.Sprintf("%s %d %d", j.ID, int64(j.Start), int64(j.End))
	}
	return digest(keys)
}

// digest is the schedule digest: a hash of the per-job lines in job-ID
// order, so it changes exactly when some job's start or end does.
func digest(keys []string) string {
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
