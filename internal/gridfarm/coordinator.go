package gridfarm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"sync"
	"time"

	"wasched/internal/farm"
)

// Store is the persistence seam the coordinator writes through: the farm's
// result cache + checkpoint journal (*farm.Store satisfies it), or a
// wrapper injecting faults around one (internal/chaos). Keeping it an
// interface is what lets the chaos harness exercise the admission path's
// crash discipline — an unjournaled admission must never be acknowledged —
// without a real disk failing on cue.
type Store interface {
	// Lookup serves a cell from the result cache.
	Lookup(c farm.Cell) (*farm.Outcome, bool, error)
	// Record journals a finished cell and persists its payload.
	Record(out *farm.Outcome) error
	// Begin journals the start of a run.
	Begin(cells, cached int) error
	// Event journals a grid lifecycle event.
	Event(event string, c farm.Cell, worker string) error
	// Dir and Name locate the journal for the recovery scan.
	Dir() string
	Name() string
	// TailRepaired reports torn-tail bytes truncated at open — the
	// signature of a predecessor killed mid-append.
	TailRepaired() int64
}

// Config tunes a coordinator.
type Config struct {
	// Sweep describes the served sweep for workers (name + config knobs).
	Sweep SweepInfo
	// LeaseTTL is how long a lease survives without a heartbeat before the
	// cell is reassigned (0: 30 s).
	LeaseTTL time.Duration
	// BatchMax caps the cells granted per lease request (0: 16).
	BatchMax int
	// MaxReassign is how many lease expiries a cell tolerates before it is
	// quarantined instead of re-leased (0: 3).
	MaxReassign int
	// MaxFresh, when positive, starts draining after that many fresh
	// (worker-produced) admissions — the distributed analogue of
	// farm.Options.MaxFresh, used by the resumability smoke test.
	MaxFresh int
	// Clock overrides the lease clock (tests); nil uses the wall clock.
	Clock func() time.Time
	// Progress receives one-line lifecycle events (nil: silent).
	Progress io.Writer
}

func (c *Config) normalize() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.MaxReassign <= 0 {
		c.MaxReassign = 3
	}
	if c.Clock == nil {
		c.Clock = func() time.Time {
			//waschedlint:allow nodeterminism lease expiry is wall-clock bookkeeping; results stay pure functions of the cells
			return time.Now()
		}
	}
}

type cellStatus int

const (
	cellPending cellStatus = iota
	cellLeased
	cellDone
	cellFailed
	cellQuarantined
)

// cellEntry is the coordinator's view of one cell.
type cellEntry struct {
	cell      farm.Cell
	status    cellStatus
	worker    string    // holder while leased
	deadline  time.Time // lease expiry while leased
	reassigns int       // lease expiries so far
	outcome   *farm.Outcome
}

func (e *cellEntry) resolved() bool {
	return e.status == cellDone || e.status == cellFailed || e.status == cellQuarantined
}

// Coordinator owns a sweep's cell list and on-disk state and serves the
// lease protocol. Grants go out in input cell order, uploads are verified
// against the cell's content hash and admitted idempotently, expired
// leases return to the pool, and repeat offenders are quarantined. The
// final Summary lists outcomes in input order — bit-identical to what a
// local farm.Run over the same cells would report.
type Coordinator struct {
	cfg   Config
	store Store

	mu          sync.Mutex
	order       []*cellEntry
	byKey       map[string]*cellEntry
	outstanding int // leased cells
	fresh       int // worker-produced admissions this run
	draining    bool
	stats       Stats

	done     chan struct{} // closed when every cell is resolved
	idle     chan struct{} // closed when draining (or drained) with no leases out
	doneOnce sync.Once
	idleOnce sync.Once

	janitorQuit chan struct{}
	janitorWG   sync.WaitGroup
	closeOnce   sync.Once
}

// NewCoordinator builds a coordinator over the cells, pre-filling resolved
// entries from the store's result cache (store may be nil for purely
// in-memory grids, e.g. tests) and journaling the run's begin record.
// Before serving, it runs a recovery scan over the shared journal: prior
// failures and quarantines return to the pool (they were never cached, so
// resume retries them), leases a dead predecessor left dangling are
// recognised and released, and a torn journal tail — the fingerprint of a
// coordinator killed mid-append — is counted after the farm layer repaired
// it. The scan makes a restart under load indistinguishable, cell for
// cell, from a clean start over the same state dir. The janitor that
// expires stale leases starts immediately; Close stops it.
func NewCoordinator(cells []farm.Cell, store Store, cfg Config) (*Coordinator, error) {
	cfg.normalize()
	if len(cells) == 0 {
		return nil, fmt.Errorf("gridfarm: no cells")
	}
	c := &Coordinator{
		cfg:         cfg,
		store:       store,
		byKey:       make(map[string]*cellEntry, len(cells)),
		done:        make(chan struct{}),
		idle:        make(chan struct{}),
		janitorQuit: make(chan struct{}),
	}
	cached := 0
	for _, cell := range cells {
		key := cell.Key()
		if prev, dup := c.byKey[key]; dup {
			return nil, fmt.Errorf("gridfarm: duplicate cell %s (also %s)", cell, prev.cell)
		}
		e := &cellEntry{cell: cell}
		if store != nil {
			out, ok, err := store.Lookup(cell)
			if err != nil {
				return nil, err
			}
			if ok {
				e.status = cellDone
				e.outcome = out
				cached++
			}
		}
		c.byKey[key] = e
		c.order = append(c.order, e)
	}
	c.stats.Cells = len(cells)
	c.stats.Cached = cached
	if store != nil {
		if err := c.recover(store); err != nil {
			return nil, err
		}
		if err := store.Begin(len(cells), cached); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.signalLocked()
	c.mu.Unlock()

	c.janitorWG.Add(1)
	go func() {
		defer c.janitorWG.Done()
		period := cfg.LeaseTTL / 4
		if period < 5*time.Millisecond {
			period = 5 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.mu.Lock()
				c.expireLocked(c.cfg.Clock())
				c.mu.Unlock()
			case <-c.janitorQuit:
				return
			}
		}
	}()
	return c, nil
}

// recover scans the shared journal for the wreckage of a previous
// coordinator: cells whose latest event is a dangling lease (the holder —
// or the coordinator tracking it — died), latest-failed cells, and
// quarantined cells all return to the pending pool on this run, because
// none of them ever reached the result cache. The tallies land in Stats
// so `wasched sweep status -coord` shows what a restart inherited. A
// missing journal is a fresh state dir, not an error.
func (c *Coordinator) recover(store Store) error {
	st, err := farm.ReadStatus(store.Dir(), store.Name())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	c.stats.RetriedFailed = st.Failed
	c.stats.ReleasedLeases = st.Leased
	c.stats.RequeuedQuarantined = st.Quarantined
	c.stats.TornTailBytes = store.TailRepaired()
	c.stats.Expiries = st.Expiries
	if st.Failed+st.Leased+st.Quarantined > 0 || c.stats.TornTailBytes > 0 {
		c.logf("gridfarm: recovery: requeued %d failed, %d leased, %d quarantined cell(s); repaired %d torn journal byte(s)",
			st.Failed, st.Leased, st.Quarantined, c.stats.TornTailBytes)
	}
	return nil
}

// Close stops the janitor. It does not close the store — the caller that
// opened it owns it.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.janitorQuit) })
	c.janitorWG.Wait()
}

// DoneC is closed once every cell is resolved (done, failed or
// quarantined).
func (c *Coordinator) DoneC() <-chan struct{} { return c.done }

// IdleC is closed once the coordinator is draining (or fully drained) and
// holds no outstanding leases — the moment a graceful shutdown can stop
// serving without orphaning in-flight work.
func (c *Coordinator) IdleC() <-chan struct{} { return c.idle }

// Drain stops granting leases. Outstanding leases may still complete (or
// expire); pending cells stay pending and appear as skipped in the
// summary.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainLocked()
}

func (c *Coordinator) drainLocked() {
	if !c.draining {
		c.draining = true
		c.logf("gridfarm: draining (no further leases)")
	}
	c.signalLocked()
}

// signalLocked closes the lifecycle channels when their conditions hold.
func (c *Coordinator) signalLocked() {
	resolved := 0
	for _, e := range c.order {
		if e.resolved() {
			resolved++
		}
	}
	if resolved == len(c.order) {
		c.doneOnce.Do(func() { close(c.done) })
		c.idleOnce.Do(func() { close(c.idle) })
		return
	}
	if c.draining && c.outstanding == 0 {
		c.idleOnce.Do(func() { close(c.idle) })
	}
}

// expireLocked returns lapsed leases to the pool, quarantining cells that
// exhausted their reassignment budget. Iterates input order so journal
// writes stay deterministic.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, e := range c.order {
		if e.status != cellLeased || now.Before(e.deadline) {
			continue
		}
		worker := e.worker
		e.status = cellPending
		e.worker = ""
		e.reassigns++
		c.outstanding--
		c.stats.Expired++
		c.journalEvent(farm.EventLeaseExpired, e.cell, worker)
		if e.reassigns > c.cfg.MaxReassign {
			e.status = cellQuarantined
			e.outcome = &farm.Outcome{
				Cell:   e.cell,
				Status: farm.StatusFailed,
				Err: fmt.Sprintf("gridfarm: quarantined after %d lease expiries (last worker %q); "+
					"the cell stalls or kills its workers — resume retries it",
					e.reassigns, worker),
			}
			c.journalEvent(farm.EventQuarantine, e.cell, worker)
			c.logf("gridfarm: quarantined %s after %d lease expiries", e.cell, e.reassigns)
		} else {
			c.logf("gridfarm: lease on %s expired (worker %s), back to pending (%d/%d reassigns)",
				e.cell, worker, e.reassigns, c.cfg.MaxReassign)
		}
	}
	c.signalLocked()
}

// journalEvent appends a grid lifecycle event; journal damage is fatal to
// admission paths (store.Record) but lifecycle events degrade to a logged
// warning, matching the journal's role as bookkeeping, not ground truth.
func (c *Coordinator) journalEvent(event string, cell farm.Cell, worker string) {
	if c.store == nil {
		return
	}
	if err := c.store.Event(event, cell, worker); err != nil {
		c.logf("gridfarm: journal: %v", err)
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Progress != nil {
		fmt.Fprintf(c.cfg.Progress, format+"\n", args...)
	}
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathSweep, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		c.writeJSON(w, c.cfg.Sweep)
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		c.writeJSON(w, c.Stats())
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !c.readJSON(w, r, &req) {
			return
		}
		c.writeJSON(w, c.lease(req))
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !c.readJSON(w, r, &req) {
			return
		}
		c.writeJSON(w, c.heartbeat(req))
	})
	mux.HandleFunc(PathComplete, func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !c.readJSON(w, r, &req) {
			return
		}
		resp, err := c.complete(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		c.writeJSON(w, resp)
	})
	return mux
}

func (c *Coordinator) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already committed; the peer's retry loop owns
		// recovery from a torn body.
		c.logf("gridfarm: writing response: %v", err)
	}
}

// lease grants up to req.Max pending cells in input order.
func (c *Coordinator) lease(req LeaseRequest) LeaseResponse {
	max := req.Max
	if max <= 0 || max > c.cfg.BatchMax {
		max = c.cfg.BatchMax
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	c.expireLocked(now)

	resolved := 0
	for _, e := range c.order {
		if e.resolved() {
			resolved++
		}
	}
	if resolved == len(c.order) {
		return LeaseResponse{Drained: true, Draining: true}
	}
	if c.draining {
		return LeaseResponse{Draining: true}
	}
	var granted []farm.Cell
	for _, e := range c.order {
		if len(granted) >= max {
			break
		}
		if e.status != cellPending {
			continue
		}
		e.status = cellLeased
		e.worker = req.Worker
		e.deadline = now.Add(c.cfg.LeaseTTL)
		c.outstanding++
		granted = append(granted, e.cell)
		c.journalEvent(farm.EventLease, e.cell, req.Worker)
	}
	if len(granted) > 0 {
		c.logf("gridfarm: leased %d cell(s) to %s", len(granted), req.Worker)
	}
	return LeaseResponse{Cells: granted, TTLMS: c.cfg.LeaseTTL.Milliseconds()}
}

// heartbeat renews the worker's leases and reports the keys it no longer
// holds.
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	var resp HeartbeatResponse
	for _, key := range req.Keys {
		e, ok := c.byKey[key]
		if !ok || e.status != cellLeased || e.worker != req.Worker {
			resp.Stale = append(resp.Stale, key)
			continue
		}
		e.deadline = now.Add(c.cfg.LeaseTTL)
	}
	return resp
}

// complete admits one uploaded outcome. The upload is verified against the
// cell's content hash — Outcome.Cell.Key() must name a cell of this sweep
// — and admission is idempotent: a duplicate or late upload of a resolved
// cell is a no-op. The error return is reserved for store failures (those
// are 500s: the worker retries, because an unjournaled admission must not
// be acknowledged).
func (c *Coordinator) complete(req CompleteRequest) (CompleteResponse, error) {
	out := req.Outcome
	if out.Status != farm.StatusDone && out.Status != farm.StatusFailed {
		return c.reject(fmt.Sprintf("invalid outcome status %q", out.Status)), nil
	}
	key := out.Cell.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return c.reject(fmt.Sprintf("unknown cell %s (key %s)", out.Cell, key)), nil
	}
	switch e.status {
	case cellDone, cellFailed:
		c.stats.Duplicates++
		return CompleteResponse{Duplicate: true}, nil
	case cellQuarantined:
		// Quarantine is terminal for this run: the budget decision was
		// journaled, resume retries the cell.
		return c.reject(fmt.Sprintf("cell %s is quarantined", out.Cell)), nil
	}
	wasLeased := e.status == cellLeased
	if c.store != nil {
		if err := c.store.Record(&out); err != nil {
			// The admission must not be acknowledged: the 500 this
			// becomes tells the worker to retry the upload, and
			// StoreErrors counts the near-miss. The error may come after
			// the done line is already durable, when the cache write
			// failed; ReadStatus then counts the cell done while it is
			// still open here. The retry appends another done line and
			// caches the payload, and a resume that misses the cache
			// recomputes the cell, so both paths stay correct.
			c.stats.StoreErrors++
			return CompleteResponse{}, err
		}
	}
	if out.Status == farm.StatusDone {
		e.status = cellDone
		c.stats.FreshDone++
		c.fresh++
	} else {
		e.status = cellFailed
	}
	e.outcome = &out
	if wasLeased {
		c.outstanding--
	}
	e.worker = ""
	doneN := 0
	for _, en := range c.order {
		if en.resolved() {
			doneN++
		}
	}
	c.logf("gridfarm: %s uploaded %s (%s, %d/%d resolved)",
		req.Worker, out.Cell, out.Status, doneN, len(c.order))
	if c.cfg.MaxFresh > 0 && c.fresh >= c.cfg.MaxFresh {
		c.drainLocked()
	}
	c.signalLocked()
	return CompleteResponse{Admitted: true}, nil
}

func (c *Coordinator) reject(reason string) CompleteResponse {
	c.stats.Rejections++
	c.logf("gridfarm: rejected upload: %s", reason)
	return CompleteResponse{Rejected: reason}
}

// Stats snapshots the cell-state tallies.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Pending, s.Leased, s.Done, s.Failed, s.Quarantined = 0, 0, 0, 0, 0
	for _, e := range c.order {
		switch e.status {
		case cellPending:
			s.Pending++
		case cellLeased:
			s.Leased++
		case cellDone:
			s.Done++
		case cellFailed:
			s.Failed++
		case cellQuarantined:
			s.Quarantined++
		}
	}
	s.Draining = c.draining
	s.Drained = s.Done+s.Failed+s.Quarantined == len(c.order)
	return s
}

// Summary folds the coordinator's state into a farm.Summary with outcomes
// in input cell order — the same aggregate a local farm.Run would produce
// for the resolved cells, with unresolved ones counted as skipped and the
// sweep marked interrupted.
func (c *Coordinator) Summary() *farm.Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := &farm.Summary{Name: c.cfg.Sweep.Name}
	for _, e := range c.order {
		if e.outcome == nil {
			sum.Skipped++
			continue
		}
		sum.Outcomes = append(sum.Outcomes, *e.outcome)
		switch e.outcome.Status {
		case farm.StatusDone:
			sum.Done++
			if e.outcome.Cached {
				sum.Cached++
			}
		default:
			sum.Failed++
		}
	}
	sum.Interrupted = sum.Skipped > 0
	return sum
}
