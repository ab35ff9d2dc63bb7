package experiments

import (
	"fmt"
	"io"
	"time"
)

// reportOrder lists the experiments of the full report: figures first in
// the paper's order, then the ablations alphabetically. Single panels are
// subsumed by the figure aggregates.
func reportOrder() []string {
	order := []string{"fig3", "fig4", "fig5", "fig6"}
	seen := map[string]bool{"fig3": true, "fig4": true, "fig5": true, "fig6": true}
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		seen["fig3"+key] = true
		seen["fig5"+key] = true
	}
	for _, name := range Names() {
		if !seen[name] {
			order = append(order, name)
		}
	}
	return order
}

func reportBanner(w io.Writer, name, description string) {
	fmt.Fprintf(w, "\n%s\n%s — %s\n%s\n\n", repeat('-', 72), name, description, repeat('-', 72))
}

// WriteFullReport runs every registered experiment and writes a single
// plain-text report — the `wasched report` command. Wall-clock progress
// goes to progress (nil discards it).
func WriteFullReport(w io.Writer, opts RunOptions, progress io.Writer) error {
	return writeReport(w, reportOrder(), Registry(), opts, progress)
}

// writeReport writes the report of the named experiments in order.
func writeReport(w io.Writer, order []string, reg map[string]Entry, opts RunOptions, progress io.Writer) error {
	if progress == nil {
		progress = io.Discard
	}
	fmt.Fprintf(w, "wasched full experiment report (seed %d)\n", opts.Seed)
	fmt.Fprintf(w, "%s\n\n", repeat('=', 72))
	for _, name := range order {
		entry := reg[name]
		reportBanner(w, name, entry.Description)
		start := time.Now()
		if err := entry.Run(w, opts); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		fmt.Fprintf(progress, "%-22s done in %s\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
