package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"wasched/internal/farm"
)

// TestFig6FarmDeterminism is the farm's determinism regression: the same
// fig6 sweep aggregated from one worker and from eight must be
// byte-identical. Any worker-count dependence (shared RNG, completion-order
// aggregation, racy accumulation) breaks this.
func TestFig6FarmDeterminism(t *testing.T) {
	t.Parallel()
	render := func(workers int) []byte {
		cfg := Fig6Config{
			Repeats:    2,
			Seed:       11,
			Experiment: "fig6-det",
			Workload:   SmokeWorkload(),
			Farm:       FarmOptions{Workers: workers},
		}
		rows, err := RunFig6(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("fig6 rows differ between 1 and 8 workers:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestSweepRegistry checks every registered sweep is complete and
// enumerates cells without duplicates (farm.Run rejects those).
func TestSweepRegistry(t *testing.T) {
	reg := Sweeps()
	if len(reg) == 0 {
		t.Fatal("no sweeps registered")
	}
	cfg := SweepConfig{Seed: 1}
	for _, name := range SweepNames() {
		s := reg[name]
		if s.Cells == nil || s.Exec == nil || s.Report == nil {
			t.Fatalf("sweep %s: incomplete registration", name)
		}
		cells := s.Cells(cfg)
		if len(cells) == 0 {
			t.Fatalf("sweep %s enumerates no cells", name)
		}
		seen := make(map[farm.Cell]bool, len(cells))
		for _, c := range cells {
			if seen[c] {
				t.Fatalf("sweep %s enumerates cell %s twice", name, c)
			}
			seen[c] = true
		}
	}
}

// TestSweepConfigReproducibleCells: Cells must be a pure function of the
// config, or the same invocation could report different work.
func TestSweepConfigReproducibleCells(t *testing.T) {
	cfg := SweepConfig{Seed: 3, Repeats: 4}
	for _, name := range SweepNames() {
		s := Sweeps()[name]
		a, b := s.Cells(cfg), s.Cells(cfg)
		if len(a) != len(b) {
			t.Fatalf("sweep %s: cell count varies across calls", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sweep %s: cell %d varies across calls: %s vs %s", name, i, a[i], b[i])
			}
		}
	}
}
