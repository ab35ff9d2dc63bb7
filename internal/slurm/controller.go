// Package slurm implements the resource-manager controller of the
// prototype: the job queue, submission and lifetime management, periodic
// backfill scheduling rounds, time-limit enforcement, and the wiring
// between the scheduling policy (internal/sched), the analytics service
// (internal/analytics) and the cluster (internal/cluster).
//
// It corresponds to the paper's modified slurmctld plus scheduling plugin
// (Fig. 2): at the beginning of every scheduling round the controller
// fetches the latest job resource estimates and the measured Lustre
// throughput from the analytical services, hands the queue to the policy,
// and applies the policy's start decisions.
package slurm

import (
	"fmt"
	"math"
	"sort"

	"wasched/internal/analytics"
	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/sched"
)

// BurstBuffer is the controller's view of a burst-buffer tier
// (internal/bb.Tier implements it). Admit reserves capacity for a start
// (an error defers the start to a later round), Wrap prefixes the job's
// program with its stage-in, and JobEnded triggers the dirty-data drain
// and eventual capacity release.
type BurstBuffer interface {
	Feasible(bytes float64, nodes int) error
	Admit(jobID string, bytes float64, nodes int) error
	Wrap(jobID string, inner cluster.Program) cluster.Program
	JobEnded(jobID string, requeued bool)
}

// TokenLimiter is the controller's view of the client-side token-bucket
// bandwidth layer (internal/tbf.Limiter implements it). Every started job
// gets a bucket for the lifetime of its attempt — the layer is pure
// execution-time control, so unlike the burst buffer it needs no
// admission gate and works under any scheduling policy.
type TokenLimiter interface {
	Register(jobID string, nodes []string)
	Unregister(jobID string)
}

// JobState is the lifecycle state of a job record.
type JobState int

// Job lifecycle states.
const (
	StatePending JobState = iota
	StateRunning
	StateCompleted
	StateTimeout   // killed at its requested limit L_j
	StateCancelled // dependency can never be satisfied
	StateNodeFail  // lost its node and requeueing is disabled
)

// String returns the Slurm-style state name.
func (s JobState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateRunning:
		return "RUNNING"
	case StateCompleted:
		return "COMPLETED"
	case StateTimeout:
		return "TIMEOUT"
	case StateCancelled:
		return "CANCELLED"
	case StateNodeFail:
		return "NODE_FAIL"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// JobSpec is a job submission request.
type JobSpec struct {
	// Name labels the job in traces.
	Name string
	// Fingerprint identifies the job's class for the estimator. Empty
	// defaults to Name.
	Fingerprint string
	// Nodes is the requested node count n_j.
	Nodes int
	// Limit is the requested runtime limit L_j.
	Limit des.Duration
	// Priority orders the queue (higher first; FIFO within a priority).
	Priority int64
	// Program is the job's behaviour once started.
	Program cluster.Program
	// DeclaredRate is the user-declared Lustre throughput in bytes/s for
	// the static-license integration path (paper §II-A); ignored unless
	// Config.UseDeclaredRates is set.
	DeclaredRate float64
	// DependsOn holds job IDs that must COMPLETE (Slurm's afterok) before
	// this job becomes eligible. If any dependency times out or is
	// cancelled, this job is cancelled (DependencyNeverSatisfied).
	DependsOn []string
	// User is the submitting user for fair-share accounting (empty = the
	// anonymous user).
	User string
	// BBBytes is the job's burst-buffer reservation request in bytes
	// (Slurm's #DW capacity). Zero requests no burst buffer; positive
	// requests require an attached tier (AttachBB) and gate the start on
	// admission: a start decision whose demand does not fit the free pool
	// is deferred to a later round.
	BBBytes float64
}

// validate checks a spec against the cluster.
func (s JobSpec) validate(clusterSize int) error {
	if s.Nodes <= 0 {
		return fmt.Errorf("slurm: job %q requests %d nodes", s.Name, s.Nodes)
	}
	if s.Nodes > clusterSize {
		return fmt.Errorf("slurm: job %q requests %d nodes, cluster has %d", s.Name, s.Nodes, clusterSize)
	}
	if s.Limit <= 0 {
		return fmt.Errorf("slurm: job %q needs a positive time limit", s.Name)
	}
	if s.Program == nil {
		return fmt.Errorf("slurm: job %q has no program", s.Name)
	}
	if s.BBBytes < 0 || math.IsNaN(s.BBBytes) {
		return fmt.Errorf("slurm: job %q requests %g burst-buffer bytes", s.Name, s.BBBytes)
	}
	return nil
}

// JobRecord is the controller's accounting record for one job.
type JobRecord struct {
	ID     string
	Spec   JobSpec
	State  JobState
	Submit des.Time // s_j
	Start  des.Time // b_j (zero until started)
	End    des.Time // c_j (zero until ended)
	Nodes  []string // allocated nodes (set at start)
	// EligibleAt is when the job last (re)joined the pending queue: the
	// submit time, or the most recent requeue. The FIFO-within-class
	// invariant orders attempts by this, not by Submit — a requeued job
	// keeps its submit-time queue position but was demonstrably not
	// waiting between its preemption and its restart.
	EligibleAt des.Time
	// Attempts counts how many times the job has started (>1 after
	// requeue preemption or node-failure requeues).
	Attempts int

	view    sched.Job // the scheduler's mutable view
	timeout des.Event
	held    int // unsatisfied dependency count; schedulable at 0
}

// Held reports whether the job is waiting on dependencies.
func (r *JobRecord) Held() bool { return r.held > 0 }

// WaitTime returns Q_j for started jobs.
func (r *JobRecord) WaitTime() des.Duration { return r.Start.Sub(r.Submit) }

// Runtime returns D_j for ended jobs.
func (r *JobRecord) Runtime() des.Duration { return r.End.Sub(r.Start) }

// EventKind labels controller notifications.
type EventKind int

// Event kinds.
const (
	EventSubmit EventKind = iota
	EventStart
	EventEnd
	// EventRequeue fires when a running job is preempted and returned to
	// the queue.
	EventRequeue
)

// Event is a job lifecycle notification delivered to listeners.
type Event struct {
	Kind EventKind
	Job  *JobRecord
	At   des.Time
}

// Config tunes the controller.
type Config struct {
	// SchedInterval is the period of backfill scheduling rounds (Slurm
	// bf_interval; the paper's prototype uses the default 30 s).
	SchedInterval des.Duration
	// Options configure the backfill engine (BackfillMax, MaxJobTest).
	Options sched.Options
	// UseDeclaredRates feeds JobSpec.DeclaredRate to the policy instead
	// of analytics estimates — the static "license" integration the paper
	// argues against (§II-A); used by the ablation experiments.
	UseDeclaredRates bool
	// Priority optionally recomputes job priorities every round (Slurm's
	// priority/multifactor plugin). Nil keeps static submit priorities.
	Priority PriorityPlugin
	// Preemption enables requeue-based preemption (Slurm's
	// PreemptMode=REQUEUE) for starvation control.
	Preemption PreemptionConfig
	// DisableNodeFailRequeue keeps jobs that lose a node in the terminal
	// NODE_FAIL state instead of requeueing them (Slurm's JobRequeue=0).
	DisableNodeFailRequeue bool
	// RateQuantile, when in (0,1], replaces the EWMA rate estimate with
	// the given quantile of the class's observed rates (falling back to
	// the EWMA when no history exists). 0.9 makes the I/O-aware scheduler
	// conservative: it budgets for the class's near-worst observed load.
	RateQuantile float64
}

// PreemptionConfig tunes requeue-based preemption: when the head of the
// queue has waited longer than MaxStarvation and still cannot start, the
// controller kills (and requeues) the lowest-priority running jobs whose
// priority trails the starved job's by at least PriorityGap, until enough
// nodes free up.
type PreemptionConfig struct {
	Enabled bool
	// MaxStarvation is how long the queue head may wait before preemption
	// triggers (0 = 30 min).
	MaxStarvation des.Duration
	// PriorityGap is the minimum priority difference between the starved
	// job and a victim.
	PriorityGap int64
}

// DefaultConfig matches the paper's Slurm setup: 30 s rounds, unlimited
// backfill reservations, whole queue examined.
func DefaultConfig() Config {
	return Config{
		SchedInterval: 30 * des.Second,
		Options:       sched.Options{BackfillMax: sched.Unlimited, MaxJobTest: 0},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SchedInterval <= 0 {
		return fmt.Errorf("slurm: SchedInterval must be positive, got %v", c.SchedInterval)
	}
	if c.Options.BackfillMax < 0 {
		return fmt.Errorf("slurm: BackfillMax must be non-negative, got %d", c.Options.BackfillMax)
	}
	if c.Options.MaxJobTest < 0 {
		return fmt.Errorf("slurm: MaxJobTest must be non-negative, got %d", c.Options.MaxJobTest)
	}
	if c.RateQuantile < 0 || c.RateQuantile > 1 {
		return fmt.Errorf("slurm: RateQuantile must be in [0,1], got %g", c.RateQuantile)
	}
	return nil
}

// Controller is the resource manager.
type Controller struct {
	eng    *des.Engine
	cl     *cluster.Cluster
	policy sched.Policy
	runner *sched.Runner
	svc    *analytics.Service // may be nil (default policy needs none)
	cfg    Config

	pending   []*JobRecord
	runningID map[string]*JobRecord
	done      []*JobRecord
	byID      map[string]*JobRecord
	nextID    int
	// dependents maps a job ID to the records held on it.
	dependents map[string][]*JobRecord

	listeners   []func(Event)
	stopTicker  func()
	kickPending bool
	rounds      uint64
	started     bool
	lastDiag    map[string]float64
	requeuing   map[string]bool
	requeues    uint64

	bb         BurstBuffer
	bbDeferred uint64
	tbf        TokenLimiter
}

// New creates a controller. svc may be nil when the policy ignores
// estimates (the default node policy); estimate-driven policies without a
// service see zero rates, which reproduces the "untrained, unmonitored"
// degenerate case.
func New(eng *des.Engine, cl *cluster.Cluster, policy sched.Policy, svc *analytics.Service, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("slurm: nil policy")
	}
	return &Controller{
		eng:        eng,
		cl:         cl,
		policy:     policy,
		runner:     sched.NewRunner(policy),
		svc:        svc,
		cfg:        cfg,
		runningID:  make(map[string]*JobRecord),
		byID:       make(map[string]*JobRecord),
		dependents: make(map[string][]*JobRecord),
		requeuing:  make(map[string]bool),
	}, nil
}

// AttachBB wires a burst-buffer tier into the start/end path. Call once
// during system assembly, before any BB-requesting job is submitted.
func (c *Controller) AttachBB(b BurstBuffer) {
	if c.bb != nil {
		panic("slurm: burst buffer already attached")
	}
	c.bb = b
}

// BBDeferred returns how many start decisions were deferred because the
// burst-buffer pool could not admit them that round.
func (c *Controller) BBDeferred() uint64 { return c.bbDeferred }

// AttachTBF wires the token-bucket bandwidth limiter into the start/end
// path. Call once during system assembly.
func (c *Controller) AttachTBF(l TokenLimiter) {
	if c.tbf != nil {
		panic("slurm: token limiter already attached")
	}
	c.tbf = l
}

// OnEvent registers a lifecycle listener (used by the trace recorder).
func (c *Controller) OnEvent(fn func(Event)) { c.listeners = append(c.listeners, fn) }

func (c *Controller) emit(kind EventKind, r *JobRecord) {
	ev := Event{Kind: kind, Job: r, At: c.eng.Now()}
	for _, fn := range c.listeners {
		fn(ev)
	}
}

// Run starts the periodic scheduling rounds. Call once, after wiring.
func (c *Controller) Run() {
	if c.started {
		panic("slurm: controller already running")
	}
	c.started = true
	c.stopTicker = c.eng.Ticker(c.cfg.SchedInterval, "slurm/sched-round", func(des.Time) {
		c.scheduleRound()
	})
	c.kick()
}

// Stop halts scheduling (periodic rounds and event-driven kicks); running
// jobs keep running. Run may be called again to resume.
func (c *Controller) Stop() {
	if c.stopTicker != nil {
		c.stopTicker()
		c.stopTicker = nil
	}
	c.started = false
}

// Submit enqueues a job now and returns its record.
func (c *Controller) Submit(spec JobSpec) (*JobRecord, error) {
	if err := spec.validate(c.cl.Size()); err != nil {
		return nil, err
	}
	if spec.BBBytes > 0 {
		// Reject demands that could never be admitted (no tier, or more
		// than the whole pool) up front — deferral would pend them forever.
		if c.bb == nil {
			return nil, fmt.Errorf("slurm: job %q requests burst buffer but none is attached", spec.Name)
		}
		if err := c.bb.Feasible(spec.BBBytes, spec.Nodes); err != nil {
			return nil, fmt.Errorf("slurm: job %q: %w", spec.Name, err)
		}
	}
	c.nextID++
	fp := spec.Fingerprint
	if fp == "" {
		fp = spec.Name
		spec.Fingerprint = fp
	}
	r := &JobRecord{
		ID:         fmt.Sprintf("job-%05d", c.nextID),
		Spec:       spec,
		State:      StatePending,
		Submit:     c.eng.Now(),
		EligibleAt: c.eng.Now(),
	}
	r.view = sched.Job{
		ID:          r.ID,
		Fingerprint: fp,
		Nodes:       spec.Nodes,
		Limit:       spec.Limit,
		Submit:      r.Submit,
		Priority:    spec.Priority,
		BBBytes:     spec.BBBytes,
	}
	for _, depID := range spec.DependsOn {
		dep, ok := c.byID[depID]
		if !ok {
			c.nextID-- // roll back the consumed ID
			return nil, fmt.Errorf("slurm: job %q depends on unknown job %q", spec.Name, depID)
		}
		switch dep.State {
		case StateCompleted:
			// Already satisfied.
		case StateTimeout, StateCancelled:
			c.nextID--
			return nil, fmt.Errorf("slurm: job %q depends on failed job %q", spec.Name, depID)
		default:
			r.held++
			c.dependents[depID] = append(c.dependents[depID], r)
		}
	}
	c.pending = append(c.pending, r)
	c.byID[r.ID] = r
	c.emit(EventSubmit, r)
	if c.started {
		c.kick()
	}
	return r, nil
}

// SubmitArray submits count copies of spec (a Slurm job array) and
// returns their records in index order.
func (c *Controller) SubmitArray(spec JobSpec, count int) ([]*JobRecord, error) {
	if count <= 0 {
		return nil, fmt.Errorf("slurm: array size must be positive, got %d", count)
	}
	recs := make([]*JobRecord, 0, count)
	for i := 0; i < count; i++ {
		r, err := c.Submit(spec)
		if err != nil {
			return recs, fmt.Errorf("slurm: array element %d: %w", i, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// SubmitAt schedules a submission at a future time (arrival processes).
func (c *Controller) SubmitAt(spec JobSpec, at des.Time) error {
	if err := spec.validate(c.cl.Size()); err != nil {
		return err
	}
	c.eng.At(at, "slurm/submit", func() {
		if _, err := c.Submit(spec); err != nil {
			panic(fmt.Sprintf("slurm: deferred submit: %v", err))
		}
	})
	return nil
}

// kick schedules an immediate extra round (coalesced) — Slurm's main
// scheduling loop reacting to submissions and completions.
func (c *Controller) kick() {
	if c.kickPending || !c.started {
		return
	}
	c.kickPending = true
	c.eng.After(0, "slurm/sched-kick", func() {
		c.kickPending = false
		c.scheduleRound()
	})
}

// refreshEstimates updates a job view's r_j and d_j from the analytics
// service (or the declared values under the license configuration).
func (c *Controller) refreshEstimates(r *JobRecord) {
	if c.cfg.UseDeclaredRates {
		r.view.Rate = r.Spec.DeclaredRate
		r.view.EstRuntime = 0 // falls back to L_j
		return
	}
	if c.svc == nil {
		return
	}
	est, ok := c.svc.Estimate(r.view.Fingerprint)
	if !ok {
		r.view.Rate = 0
		r.view.EstRuntime = 0
		return
	}
	r.view.Rate = est.Rate
	r.view.EstRuntime = est.Runtime
	if q := c.cfg.RateQuantile; q > 0 {
		if rate, ok := c.svc.QuantileRate(r.view.Fingerprint, q); ok {
			r.view.Rate = rate
		}
	}
}

// scheduleRound runs one backfill round (paper Algorithm 1) and starts the
// jobs the policy selected.
func (c *Controller) scheduleRound() {
	c.rounds++
	if len(c.pending) == 0 {
		return
	}
	// Line 1 inputs: latest estimates and the measured throughput.
	runningViews := make([]*sched.Job, 0, len(c.runningID))
	runningIDs := make([]string, 0, len(c.runningID))
	for id := range c.runningID {
		runningIDs = append(runningIDs, id)
	}
	sort.Strings(runningIDs)
	for _, id := range runningIDs {
		r := c.runningID[id]
		c.refreshEstimates(r)
		runningViews = append(runningViews, &r.view)
	}
	waitingViews := make([]*sched.Job, 0, len(c.pending))
	for _, r := range c.pending {
		if r.held > 0 {
			continue // dependencies outstanding
		}
		c.refreshEstimates(r)
		if c.cfg.Priority != nil {
			r.view.Priority = c.cfg.Priority.Priority(r, c.eng.Now())
		}
		waitingViews = append(waitingViews, &r.view)
	}
	sched.SortQueue(waitingViews)
	measured := 0.0
	if c.svc != nil && !c.cfg.UseDeclaredRates {
		measured = c.svc.CurrentThroughput()
	}
	in := sched.RoundInput{
		Now:                c.eng.Now(),
		Running:            runningViews,
		Waiting:            waitingViews,
		MeasuredThroughput: measured,
		UnavailableNodes:   c.cl.DownNodes(),
	}
	decisions, round := c.runner.RunRound(in, c.cfg.Options)
	if diag, ok := round.(sched.Diagnoser); ok {
		c.lastDiag = diag.Diagnostics()
	}
	for _, j := range sched.StartNowJobs(decisions) {
		r := c.byID[j.ID]
		if c.bb != nil && r.Spec.BBBytes > 0 {
			// Burst-buffer admission gates the start: BB-blind policies
			// hand out start-now decisions the pool cannot hold (drains
			// of finished jobs still occupy it), and those jobs simply
			// stay pending and are retried next round. Plan-based
			// policies rarely hit this — they co-reserved the pool.
			if err := c.bb.Admit(r.ID, r.Spec.BBBytes, r.Spec.Nodes); err != nil {
				c.bbDeferred++
				continue
			}
		}
		c.startJob(r)
	}
	if c.cfg.Preemption.Enabled {
		c.maybePreempt(decisions)
	}
}

// maybePreempt implements requeue preemption: if the highest-priority
// waiting job has starved past the threshold and did not start this round,
// requeue enough lower-priority running jobs to free its nodes. The freed
// nodes are picked from the lowest-priority victims first.
func (c *Controller) maybePreempt(decisions []sched.Decision) {
	starve := c.cfg.Preemption.MaxStarvation
	if starve == 0 {
		starve = 30 * des.Minute
	}
	var head *JobRecord
	for _, d := range decisions {
		if d.StartNow {
			continue
		}
		head = c.byID[d.Job.ID]
		break
	}
	if head == nil || c.eng.Now().Sub(head.Submit) < starve {
		return
	}
	needed := head.Spec.Nodes - c.cl.FreeNodes()
	if needed <= 0 {
		return // blocked on something other than nodes; preemption cannot help
	}
	// Victims: running jobs whose priority trails by at least the gap,
	// lowest priority first, most recently started first as tiebreak.
	type victim struct{ r *JobRecord }
	var victims []victim
	for _, r := range c.runningID {
		if head.view.Priority-r.view.Priority >= c.cfg.Preemption.PriorityGap {
			victims = append(victims, victim{r})
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a].r, victims[b].r
		if va.view.Priority != vb.view.Priority {
			return va.view.Priority < vb.view.Priority
		}
		if va.Start != vb.Start {
			return va.Start > vb.Start
		}
		return va.ID < vb.ID
	})
	freed := 0
	for _, v := range victims {
		if freed >= needed {
			break
		}
		freed += v.r.Spec.Nodes
		c.requeue(v.r)
	}
}

// requeue kills a running job and returns it to the pending queue with its
// original submit time; the program restarts from scratch when the job is
// next scheduled (requeue preemption loses partial work, as in Slurm).
func (c *Controller) requeue(r *JobRecord) {
	if r.State != StateRunning {
		return
	}
	c.requeuing[r.ID] = true
	c.cl.Kill(r.ID)
}

// Diagnostics returns the most recent scheduling round's policy internals
// (the adaptive target R̃, the two-group threshold r*, ...) or nil when the
// policy exposes none. Values are a snapshot; do not mutate.
func (c *Controller) Diagnostics() map[string]float64 { return c.lastDiag }

// startJob launches a pending job on the cluster and arms its time limit.
func (c *Controller) startJob(r *JobRecord) {
	if r.State != StatePending {
		panic(fmt.Sprintf("slurm: starting job %s in state %v", r.ID, r.State))
	}
	prog := r.Spec.Program
	if c.bb != nil && r.Spec.BBBytes > 0 {
		prog = c.bb.Wrap(r.ID, prog)
	}
	exec, err := c.cl.Start(r.ID, r.Spec.Nodes, prog, func(e *cluster.Execution) {
		c.jobEnded(r, e)
	})
	if err != nil {
		// The policy promised the nodes are free; a failure here is a
		// scheduling bug, not a runtime condition.
		panic(fmt.Sprintf("slurm: start %s: %v", r.ID, err))
	}
	r.State = StateRunning
	r.Start = c.eng.Now()
	r.Nodes = exec.Nodes
	r.Attempts++
	r.view.StartedAt = r.Start
	c.removePending(r)
	c.runningID[r.ID] = r
	if c.tbf != nil {
		c.tbf.Register(r.ID, exec.Nodes)
	}
	r.timeout = c.eng.After(r.Spec.Limit, "slurm/timeout/"+r.ID, func() {
		c.cl.Kill(r.ID)
	})
	c.emit(EventStart, r)
}

func (c *Controller) removePending(r *JobRecord) {
	for i, p := range c.pending {
		if p == r {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("slurm: job %s not in pending queue", r.ID))
}

// jobEnded finalises accounting when an execution finishes and notifies
// the analytics service so the job's class estimate updates (paper §III).
func (c *Controller) jobEnded(r *JobRecord, e *cluster.Execution) {
	c.eng.Cancel(r.timeout)
	r.timeout = des.Event{}
	if c.requeuing[r.ID] || (e.Exit == cluster.ExitNodeFail && !c.cfg.DisableNodeFailRequeue) {
		// Preempted: back to the queue, original submit time preserved.
		// Emit while the attempt's Start/End/EligibleAt are still intact —
		// listeners (the trace recorder) record the finished attempt, which
		// is what lets the FIFO-within-class invariant keep running under
		// requeues instead of being skipped wholesale.
		delete(c.requeuing, r.ID)
		delete(c.runningID, r.ID)
		c.requeues++
		r.State = StatePending
		r.End = c.eng.Now()
		if c.bb != nil && r.Spec.BBBytes > 0 {
			c.bb.JobEnded(r.ID, true)
		}
		if c.tbf != nil {
			c.tbf.Unregister(r.ID)
		}
		c.emit(EventRequeue, r)
		r.Start = 0
		r.End = 0
		r.Nodes = nil
		r.view.StartedAt = 0
		r.EligibleAt = c.eng.Now()
		c.pending = append(c.pending, r)
		c.kick()
		return
	}
	switch e.Exit {
	case cluster.ExitKilled:
		r.State = StateTimeout
	case cluster.ExitNodeFail:
		r.State = StateNodeFail
	default:
		r.State = StateCompleted
	}
	r.End = c.eng.Now()
	delete(c.runningID, r.ID)
	c.done = append(c.done, r)
	if c.bb != nil && r.Spec.BBBytes > 0 {
		c.bb.JobEnded(r.ID, false)
	}
	if c.tbf != nil {
		c.tbf.Unregister(r.ID)
	}
	if c.svc != nil {
		c.svc.JobCompleted(r.view.Fingerprint, r.Nodes, r.Start, r.End)
	}
	if c.cfg.Priority != nil {
		c.cfg.Priority.JobEnded(r)
	}
	c.emit(EventEnd, r)
	c.resolveDependents(r)
	c.kick()
}

// resolveDependents releases (or cancels) jobs held on the ended job.
func (c *Controller) resolveDependents(r *JobRecord) {
	deps := c.dependents[r.ID]
	delete(c.dependents, r.ID)
	for _, d := range deps {
		if d.State != StatePending {
			continue
		}
		if r.State == StateCompleted {
			d.held--
			continue
		}
		// afterok with a failed dependency: DependencyNeverSatisfied.
		c.cancel(d)
	}
}

// cancel removes a pending job (dependency failure) and recursively
// cancels anything held on it.
func (c *Controller) cancel(r *JobRecord) {
	if r.State != StatePending {
		return
	}
	r.State = StateCancelled
	r.End = c.eng.Now()
	c.removePending(r)
	c.done = append(c.done, r)
	c.emit(EventEnd, r)
	c.resolveDependents(r)
}

// QueueLength returns the number of pending jobs.
func (c *Controller) QueueLength() int { return len(c.pending) }

// RunningCount returns the number of running jobs.
func (c *Controller) RunningCount() int { return len(c.runningID) }

// AppendRunningJobs appends the currently running job records to dst and
// returns it, sorted by ID so that float accumulation over the result is
// reproducible (the trace recorder sums attributed rates every sample).
func (c *Controller) AppendRunningJobs(dst []*JobRecord) []*JobRecord {
	start := len(dst)
	for _, r := range c.runningID {
		//waschedlint:allow maporder the appended tail is sorted by ID below before anything observes it
		dst = append(dst, r)
	}
	running := dst[start:]
	sort.Slice(running, func(a, b int) bool { return running[a].ID < running[b].ID })
	return dst
}

// DoneCount returns the number of finished jobs.
func (c *Controller) DoneCount() int { return len(c.done) }

// Rounds returns how many scheduling rounds have run.
func (c *Controller) Rounds() uint64 { return c.rounds }

// Requeues returns how many preemption requeues have occurred.
func (c *Controller) Requeues() uint64 { return c.requeues }

// Job returns a record by ID.
func (c *Controller) Job(id string) (*JobRecord, bool) {
	r, ok := c.byID[id]
	return r, ok
}

// DoneJobs returns finished job records in completion order.
func (c *Controller) DoneJobs() []*JobRecord {
	out := make([]*JobRecord, len(c.done))
	copy(out, c.done)
	return out
}

// Idle reports whether no work remains (empty queue, nothing running).
func (c *Controller) Idle() bool { return len(c.pending) == 0 && len(c.runningID) == 0 }

// Makespan returns the completion time of the last finished job.
func (c *Controller) Makespan() des.Time {
	var last des.Time
	for _, r := range c.done {
		if r.End > last {
			last = r.End
		}
	}
	return last
}

// Policy returns the active scheduling policy.
func (c *Controller) Policy() sched.Policy { return c.policy }

// Cluster returns the managed cluster.
func (c *Controller) Cluster() *cluster.Cluster { return c.cl }
