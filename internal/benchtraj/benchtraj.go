// Package benchtraj reads and writes the performance trajectories the
// benchmark commands keep (BENCH_replay.json, BENCH_system.json): JSON
// arrays with one entry appended per recorded measurement.
package benchtraj

import (
	"encoding/json"
	"fmt"
	"os"
)

// Read loads a trajectory file; a missing file is an empty history.
func Read[E any](path string) ([]E, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var history []E
	if err := json.Unmarshal(data, &history); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return history, nil
}

// Write stores a trajectory as indented JSON.
func Write[E any](path string, history []E) error {
	data, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
