// Package farm runs sweeps of independent DES simulations. It keeps four
// properties and nothing else:
//
//   - a bounded worker pool executes the sweep's cells (experiment ×
//     config × seed) concurrently;
//   - per-cell seeds (CellSeed) depend only on the cell, never on
//     execution order;
//   - panic isolation: a crashing cell is recorded as failed, not fatal to
//     the sweep;
//   - outcomes come back in input order, so a parallel sweep's aggregate
//     is bit-identical to a serial one.
//
// The farm knows nothing about schedulers or file systems — a cell's
// semantics live entirely in the Exec callback — which is what lets
// internal/experiments (figure panels, fig4 ladder, fig6 repeats,
// ablations) and internal/schedcheck's differential corpus share one pool.
package farm

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
)

// Cell is one work unit of a sweep: a named experiment, a configuration
// key within it, and the seed of the run. Two cells with the same three
// fields are the same computation.
type Cell struct {
	Experiment string
	Config     string
	Seed       uint64
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/seed%d", c.Experiment, c.Config, c.Seed)
}

// CellSeed derives a deterministic RNG seed for a cell from a base seed.
// The derivation depends only on the cell's identity, never on execution
// order, which is the contract that makes a parallel sweep bit-identical
// to a serial one.
func CellSeed(base uint64, c Cell) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d", c.Experiment, c.Config, c.Seed)
	return base ^ h.Sum64()
}

// Exec runs one cell and returns its result. The result must be a pure
// function of the cell: the determinism contract rests on it.
type Exec func(c Cell) (any, error)

// Status classifies a cell outcome.
type Status string

// Cell outcome statuses.
const (
	StatusDone   Status = "done"
	StatusFailed Status = "failed"
)

// Outcome is one cell's result.
type Outcome struct {
	Cell   Cell
	Status Status
	// Err describes the failure (including recovered panics).
	Err string

	value any
}

// Value returns the result Exec returned, or nil for a failed cell.
func (o *Outcome) Value() any { return o.value }

// Options configure a sweep execution.
type Options struct {
	// Workers bounds concurrent cell executions (<= 0: GOMAXPROCS).
	Workers int
}

// Summary is a completed sweep.
type Summary struct {
	// Outcomes holds one outcome per cell in the input cell order,
	// regardless of completion order.
	Outcomes []Outcome
	// Done counts succeeded cells, Failed the errored or panicked ones.
	Done, Failed int
}

// Err folds the summary into the sweep's error discipline: sweeps with
// failed cells return a failure tally, clean sweeps return nil.
func (s *Summary) Err() error {
	if s.Failed > 0 {
		return fmt.Errorf("farm: %d of %d cells failed", s.Failed, len(s.Outcomes))
	}
	return nil
}

// Run executes the sweep's cells through exec on a bounded worker pool and
// returns the per-cell outcomes in input order. Run itself errors only on
// a nil exec or duplicate cells; cell failures are recorded in the
// summary.
func Run(cells []Cell, exec Exec, opts Options) (*Summary, error) {
	if exec == nil {
		return nil, fmt.Errorf("farm: nil exec")
	}
	seen := make(map[Cell]int, len(cells))
	for i, c := range cells {
		if j, dup := seen[c]; dup {
			return nil, fmt.Errorf("farm: duplicate cell %s (positions %d and %d)", c, j, i)
		}
		seen[c] = i
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	sum := &Summary{Outcomes: make([]Outcome, len(cells))}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				sum.Outcomes[i] = runCell(exec, cells[i])
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()

	for _, o := range sum.Outcomes {
		if o.Status == StatusDone {
			sum.Done++
		} else {
			sum.Failed++
		}
	}
	return sum, nil
}

// runCell executes one cell with panic isolation: a panicking exec is
// recorded as a failed outcome carrying the panic message and stack, and
// the rest of the sweep proceeds.
func runCell(exec Exec, c Cell) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Cell: c, Status: StatusFailed, Err: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	v, err := exec(c)
	if err != nil {
		return Outcome{Cell: c, Status: StatusFailed, Err: err.Error()}
	}
	return Outcome{Cell: c, Status: StatusDone, value: v}
}
