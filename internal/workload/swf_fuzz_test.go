package workload

import (
	"fmt"
	"strings"
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
)

// checkSWFJobs asserts the contract every ParseSWF result keeps, however
// hostile the input: each job submits at t ≥ 0, has a positive limit that
// covers its runtime and a width in [1, MaxNodes]; jobs come back in
// submit order; and Dropped is the quirk total.
func checkSWFJobs(res SWFResult, opts SWFOptions) error {
	if res.Dropped != res.Quirks.Skipped() {
		return fmt.Errorf("Dropped = %d, Quirks.Skipped() = %d", res.Dropped, res.Quirks.Skipped())
	}
	for i, j := range res.Jobs {
		var runtime des.Duration
		switch p := j.Spec.Program.(type) {
		case cluster.SleepProgram:
			runtime = p.D
		case cluster.BurstyProgram:
			runtime = p.Compute
		default:
			return fmt.Errorf("job %d (%s): unexpected program %T", i, j.Spec.Name, p)
		}
		switch {
		case j.At < 0:
			return fmt.Errorf("job %d (%s): At = %v", i, j.Spec.Name, j.At)
		case j.Spec.Limit <= 0:
			return fmt.Errorf("job %d (%s): Limit = %v", i, j.Spec.Name, j.Spec.Limit)
		case runtime < 0 || runtime > j.Spec.Limit:
			return fmt.Errorf("job %d (%s): runtime %v outside [0, Limit %v]", i, j.Spec.Name, runtime, j.Spec.Limit)
		case j.Spec.Nodes < 1 || j.Spec.Nodes > opts.MaxNodes:
			return fmt.Errorf("job %d (%s): Nodes = %d, want [1, %d]", i, j.Spec.Name, j.Spec.Nodes, opts.MaxNodes)
		case i > 0 && j.At < res.Jobs[i-1].At:
			return fmt.Errorf("job %d (%s): At %v before job %d's %v", i, j.Spec.Name, j.At, i-1, res.Jobs[i-1].At)
		}
	}
	return nil
}

// TestParseSWFOutOfRange: fields far past any real trace must not wrap
// around into valid-looking jobs. An oversized processor count is too
// wide, an oversized submit or runtime drops the row, and an oversized
// requested time falls back to twice the runtime like a missing one.
func TestParseSWFOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		line string
		// quirk is the counter a dropped row lands in; nil when the row
		// is kept with the given limit.
		quirk func(q SWFQuirks) int
		limit des.Duration
	}{
		{"huge-procs", "1 0 0 100 1e30 -1 -1 1e30 200 -1 -1 1",
			func(q SWFQuirks) int { return q.TooWide }, 0},
		{"huge-runtime", "2 0 0 1e30 4 -1 -1 4 -1 -1 -1 1",
			func(q SWFQuirks) int { return q.BadRuntime }, 0},
		{"huge-submit", "3 1e30 0 100 4 -1 -1 4 200 -1 -1 1",
			func(q SWFQuirks) int { return q.BadSubmit }, 0},
		{"huge-request", "4 0 0 100 4 -1 -1 4 1e30 -1 -1 1", nil, 260 * des.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultSWFOptions()
			res, err := ParseSWF(strings.NewReader(tc.line+"\n"), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSWFJobs(res, opts); err != nil {
				t.Fatal(err)
			}
			if tc.quirk != nil {
				if got := tc.quirk(res.Quirks); got != 1 || len(res.Jobs) != 0 || res.Dropped != 1 {
					t.Fatalf("row must drop into its quirk counter: jobs %+v, quirks %+v", res.Jobs, res.Quirks)
				}
				return
			}
			if len(res.Jobs) != 1 || res.Quirks.Any() {
				t.Fatalf("row must be kept clean: jobs %+v, quirks %+v", res.Jobs, res.Quirks)
			}
			if got := res.Jobs[0].Spec.Limit; got != tc.limit {
				t.Fatalf("Limit = %v, want %v", got, tc.limit)
			}
		})
	}
}

// FuzzParseSWF feeds arbitrary text to the SWF parser and converter and
// asserts the checkSWFJobs contract on whatever comes back.
func FuzzParseSWF(f *testing.F) {
	f.Add(sampleSWF)
	f.Add("1 0 0 100 1e30 -1 -1 1e30 200 -1 -1 1\n2 0 0 1e30 4 -1 -1 4 -1 -1 -1 1\n")
	f.Add("3 1e30 0 100 4 -1 -1 4 200 -1 -1 1\n4 0 0 100 4 -1 -1 4 1e30 -1 -1 1\n")
	f.Add("3 120 -1 300 56 -1 -1 56 600 -1 1 7\n1 0 -1 300 56 -1 -1 56 NaN -1 1 7\n2 60 -1 300 -1 -1 -1 -1 +Inf -1 1 8\n")
	f.Add("; header\n1 1e-300 0 1e-300 1e-300 -1 -1 1e-300 1e-300 -1 -1 1\n2 60 10\n")
	f.Fuzz(func(t *testing.T, in string) {
		opts := DefaultSWFOptions()
		res, err := ParseSWF(strings.NewReader(in), opts)
		if err != nil {
			return // only an over-long line fails the read; nothing to check
		}
		if err := checkSWFJobs(res, opts); err != nil {
			t.Fatalf("%v\ninput: %q", err, in)
		}
	})
}
