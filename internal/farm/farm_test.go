package farm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wasched/internal/des"
)

// sweepCells builds a small synthetic sweep.
func sweepCells(n int) []Cell {
	cells := make([]Cell, 0, n)
	for i := 0; i < n; i++ {
		cells = append(cells, Cell{Experiment: "t", Config: fmt.Sprintf("c%02d", i%4), Seed: uint64(i)})
	}
	return cells
}

// simExec is a deterministic stand-in for a simulation: it derives the
// cell's RNG exactly as a real sweep would and returns a digest of the
// stream, so any cross-cell state leakage or order dependence shows up as
// a changed result.
func simExec(c Cell) (any, error) {
	rng := des.NewRNG(CellSeed(7, c), "farm-test/"+c.Config)
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += rng.Float64()
	}
	return sum, nil
}

func mustRun(t *testing.T, cells []Cell, exec Exec, opts Options) *Summary {
	t.Helper()
	sum, err := Run(cells, exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestParallelMatchesSerial is the core determinism contract: the
// outcomes of workers=1 and workers=8 are identical and in input order.
func TestParallelMatchesSerial(t *testing.T) {
	cells := sweepCells(16)
	serial := mustRun(t, cells, simExec, Options{Workers: 1})
	parallel := mustRun(t, cells, simExec, Options{Workers: 8})
	if serial.Done != 16 || parallel.Done != 16 {
		t.Fatalf("done: serial %d, parallel %d", serial.Done, parallel.Done)
	}
	if !reflect.DeepEqual(serial.Outcomes, parallel.Outcomes) {
		t.Fatalf("parallel outcomes differ from serial:\n%+v\n%+v", serial.Outcomes, parallel.Outcomes)
	}
	for i, o := range parallel.Outcomes {
		if o.Cell != cells[i] {
			t.Fatalf("outcome %d is cell %s, want %s", i, o.Cell, cells[i])
		}
		if want, _ := simExec(cells[i]); o.Value() != want {
			t.Fatalf("outcome %d value %v, want %v", i, o.Value(), want)
		}
	}
}

// TestPanicIsolation: a panicking cell is recorded as failed with its
// stack, and every other cell still completes.
func TestPanicIsolation(t *testing.T) {
	cells := sweepCells(8)
	exec := func(c Cell) (any, error) {
		if c.Seed == 3 {
			panic("boom in cell 3")
		}
		return simExec(c)
	}
	sum := mustRun(t, cells, exec, Options{Workers: 4})
	if sum.Done != 7 || sum.Failed != 1 {
		t.Fatalf("done=%d failed=%d", sum.Done, sum.Failed)
	}
	failed := sum.Outcomes[3]
	if failed.Status != StatusFailed || failed.Cell.Seed != 3 || failed.Value() != nil {
		t.Fatalf("wrong failed cell: %+v", failed)
	}
	if !strings.Contains(failed.Err, "boom in cell 3") || !strings.Contains(failed.Err, "farm_test.go") {
		t.Fatalf("panic detail missing from error: %q", failed.Err)
	}
	if err := sum.Err(); err == nil {
		t.Fatal("summary with failed cells must report an error")
	}
}

// TestDuplicateCellsRejected: duplicate cells in one sweep would
// compute the same result twice and make the aggregate ambiguous.
func TestDuplicateCellsRejected(t *testing.T) {
	cells := []Cell{{Experiment: "t", Config: "a", Seed: 1}, {Experiment: "t", Config: "a", Seed: 1}}
	if _, err := Run(cells, simExec, Options{}); err == nil {
		t.Fatal("duplicate cells must be rejected")
	}
}

// TestCellKeyStable pins the seed derivation from a cell's identity:
// sweeps that seed from CellSeed must reproduce across versions.
func TestCellKeyStable(t *testing.T) {
	c := Cell{Experiment: "fig6", Config: "d", Seed: 7920}
	if got := CellSeed(1, c); got != 0x179f662b95b518e0 {
		t.Fatalf("CellSeed(1, %s) = %#x, want 0x179f662b95b518e0", c, got)
	}
	if CellSeed(1, c) == CellSeed(1, Cell{Experiment: "fig6", Config: "e", Seed: 7920}) {
		t.Fatal("distinct cells must derive distinct seeds")
	}
}
