package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"wasched/internal/farm"
)

// fakeReportRegistry builds a tiny registry of instant "experiments" so
// the report assembly can be exercised without running real simulations.
func fakeReportRegistry() ([]string, map[string]Entry) {
	names := []string{"alpha", "beta", "gamma"}
	reg := make(map[string]Entry, len(names))
	for _, n := range names {
		reg[n] = Entry{Name: n, Description: n + " section", Run: func(w io.Writer, opts RunOptions) error {
			fmt.Fprintf(w, "%s report seed=%d\n", n, opts.Seed)
			return nil
		}}
	}
	return names, reg
}

// TestReportFailedSectionSurfaces: a failing experiment names itself in
// the error instead of vanishing into a generic tally.
func TestReportFailedSectionSurfaces(t *testing.T) {
	t.Parallel()
	order, reg := fakeReportRegistry()
	reg["beta"] = Entry{Name: "beta", Description: "boom", Run: func(io.Writer, RunOptions) error {
		return fmt.Errorf("synthetic failure")
	}}
	var buf bytes.Buffer
	err := writeReport(&buf, order, reg, RunOptions{Seed: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "beta") || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("failed section error: %v", err)
	}
}

// TestAblationRegistryConsistency: the CLI registry and the "ablations"
// sweep are both derived from AblationGrids, grid for grid.
func TestAblationRegistryConsistency(t *testing.T) {
	t.Parallel()
	grids := AblationGrids()
	if len(grids) == 0 {
		t.Fatal("no ablation grids registered")
	}
	reg := Registry()
	for _, g := range grids {
		e, ok := reg[g.Name]
		if !ok {
			t.Errorf("grid %s missing from experiment registry", g.Name)
			continue
		}
		if e.Description != g.Description {
			t.Errorf("grid %s: registry description %q != grid description %q",
				g.Name, e.Description, g.Description)
		}
	}
	s, ok := Sweeps()["ablations"]
	if !ok {
		t.Fatal("ablations sweep not registered")
	}
	cells := s.Cells(SweepConfig{Seed: 3})
	if len(cells) != len(grids) {
		t.Fatalf("ablations sweep enumerates %d cells for %d grids", len(cells), len(grids))
	}
	for i, c := range cells {
		if c.Config != grids[i].Name || c.Experiment != "ablations" || c.Seed != 3 {
			t.Fatalf("cell %d: %+v does not match grid %s", i, c, grids[i].Name)
		}
	}
}

// TestAblationsSweepReportSynthetic drives the sweep's Report over a
// summary of stand-in cells, so the (expensive) grids themselves never
// run.
func TestAblationsSweepReportSynthetic(t *testing.T) {
	t.Parallel()
	s := Sweeps()["ablations"]
	cfg := SweepConfig{Seed: 1}
	cells := s.Cells(cfg)
	exec := func(c farm.Cell) (any, error) {
		return []AblationDigest{
			{Label: c.Config + "/base", Makespan: 1000},
			{Label: c.Config + "/variant", Makespan: 900, VsBase: -0.1},
		}, nil
	}
	sum, err := farm.Run(cells, exec, farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Report(&buf, cfg, sum); err != nil {
		t.Fatal(err)
	}
	for _, g := range AblationGrids() {
		if !strings.Contains(buf.String(), "=== "+g.Name+": ") {
			t.Fatalf("report missing grid %s:\n%s", g.Name, buf.String())
		}
		if !strings.Contains(buf.String(), g.Name+"/variant") {
			t.Fatalf("report missing rows of grid %s", g.Name)
		}
	}
	// An incomplete summary must fail loudly, not print a partial report.
	short, err := farm.Run(cells[:len(cells)-1], exec, farm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Report(io.Discard, cfg, short); err == nil {
		t.Fatal("report over an incomplete summary must fail")
	}
}
