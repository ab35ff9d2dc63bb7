package schedcheck

import (
	"fmt"

	"wasched/internal/farm"
)

// CorpusSeeds are the standard seeds of the differential corpus: every
// workload kind × every seed = 30 replayed workloads.
func CorpusSeeds() []uint64 { return []uint64{1, 2, 3, 4, 5} }

// CorpusCells enumerates the differential corpus as farm work units, one
// cell per (kind, seed). The experiment name is the cells' Experiment
// field, so callers embedding the corpus in different sweeps should pass
// distinct names.
func CorpusCells(experiment string, seeds []uint64) []farm.Cell {
	if len(seeds) == 0 {
		seeds = CorpusSeeds()
	}
	cells := make([]farm.Cell, 0, len(Kinds())*len(seeds))
	for _, kind := range Kinds() {
		for _, seed := range seeds {
			cells = append(cells, farm.Cell{Experiment: experiment, Config: string(kind), Seed: seed})
		}
	}
	return cells
}

// CorpusPayload is the deterministic per-cell result of a corpus cell: a
// compact digest of the differential run (the full traces stay in the
// cell; the digest is what the sweep reports).
type CorpusPayload struct {
	Kind        string
	Seed        uint64
	Jobs        int
	JobsChecked int
	Warnings    int
	Makespans   map[string]float64 // seconds
}

// CorpusExec returns the farm executor for differential-corpus cells: it
// generates the cell's seeded workload, replays it through every policy,
// and fails the cell on any invariant or metamorphic violation.
func CorpusExec(nodes int, limit float64) farm.Exec {
	return func(c farm.Cell) (any, error) {
		kind := WorkloadKind(c.Config)
		w := Generate(kind, c.Seed, nodes, limit)
		if len(w) == 0 {
			return nil, fmt.Errorf("schedcheck: empty workload for kind %s", kind)
		}
		diff := DiffConfig{Nodes: nodes, Limit: limit}
		labels := PolicyLabels()
		if kind.HasBB() {
			diff.BBCapacity = CorpusBBCapacity
			diff.BBStageRate = CorpusBBStageRate
			diff.BBDrainRate = CorpusBBDrainRate
			labels = append(labels, BBPolicyLabels()...)
		}
		if kind.HasTBF() {
			diff.TBFCapacity = CorpusTBFCapacity
			diff.TBFServers = CorpusTBFServers
			labels = append(labels, TBFPolicyLabels()...)
		}
		res := RunDifferential(w, diff)
		if err := res.Check.Err(); err != nil {
			return nil, err
		}
		p := CorpusPayload{
			Kind:        string(kind),
			Seed:        c.Seed,
			Jobs:        len(w),
			JobsChecked: res.Check.JobsChecked,
			Warnings:    len(res.Check.Warnings),
			Makespans:   make(map[string]float64, len(labels)),
		}
		for _, label := range labels {
			r := res.Results[label]
			if r == nil {
				return nil, fmt.Errorf("schedcheck: policy %s missing from results", label)
			}
			p.Makespans[label] = r.Makespan.Seconds()
		}
		return p, nil
	}
}
