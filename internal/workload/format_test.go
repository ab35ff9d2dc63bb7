package workload

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"wasched/internal/cluster"
)

// Out-of-range fields must fail to decode instead of turning into
// valid-looking jobs: NaN and overflowing times, counts and sizes once
// became negative times, a negative limit, MinInt64 threads or a panic.
func TestDecodeOutOfRange(t *testing.T) {
	for _, line := range []string{
		"NaN a 1 10 0 sleep 1",          // submit: At became -9.2e18
		"+Inf a 1 10 0 sleep 1",         // submit
		"1e30 a 1 10 0 sleep 1",         // submit beyond the clock
		"0 a 1 NaN 0 sleep 1",           // limit: became negative
		"0 a 1 1e300 0 sleep 1",         // limit: became negative
		"0 a 1 1e-9 0 sleep 1",          // limit: rounds to zero
		"0 a 1 10 0 sleep NaN",          // sleep: negative duration
		"0 a 1 10 0 sleep 1e30",         // sleep beyond the clock
		"0 a 1 10 0 write 1e30 1",       // threads: became MinInt64
		"0 a 1 10 0 write 2.5 1",        // threads: not a count
		"0 a 1 10 0 read 3000000000 1",  // threads beyond MaxInt32
		"0 a 1 10 0 write 1 NaN",        // GiB per thread
		"0 a 1 10 0 write 1 1e300",      // GiB per thread overflows bytes
		"0 a 1 10 0 bursty NaN 1 1 1",   // cycles
		"0 a 1 10 0 bursty 1 NaN 1 1",   // compute
		"0 a 1 10 0 bursty 1 1 1 +Inf",  // GiB per thread
		"0 a 1 10 0 bb NaN sleep 1",     // bb GiB: was accepted
		"0 a 1 10 0 bb 1e300 sleep 1",   // bb GiB overflows bytes
		"0 a 1 10 0 phased NaN sleep 1", // phase count: panicked
		"0 a 1 10 0 phased 2 sleep 1",   // more phases than fields left
	} {
		if got, err := Decode(strings.NewReader(line)); err == nil {
			t.Errorf("%q decoded to %+v, want an error", line, got)
		}
	}
	// The bounds themselves are in range.
	for _, line := range []string{
		"3153600000 a 1 3153600000 0 sleep 3153600000",
		"0 a 1 1e-6 0 bursty 2147483647 0 2147483647 1e-300",
	} {
		if _, err := Decode(strings.NewReader(line)); err != nil {
			t.Errorf("%q: %v", line, err)
		}
	}
}

// checkProgram asserts that a decoded program is one a simulation can
// run: positive durations and counts, finite positive sizes.
func checkProgram(p cluster.Program) error {
	size := func(b float64) bool { return b > 0 && !math.IsInf(b, 0) }
	switch p := p.(type) {
	case cluster.SleepProgram:
		if p.D <= 0 {
			return fmt.Errorf("sleep %v", p.D)
		}
	case cluster.WriteProgram:
		if p.Threads < 1 || !size(p.BytesPerThread) {
			return fmt.Errorf("write %+v", p)
		}
	case cluster.ReadProgram:
		if p.Threads < 1 || !size(p.BytesPerThread) {
			return fmt.Errorf("read %+v", p)
		}
	case cluster.BurstyProgram:
		if p.Cycles < 1 || p.Compute < 0 || p.Threads < 1 || !size(p.BytesPerThread) {
			return fmt.Errorf("bursty %+v", p)
		}
	case cluster.PhasedProgram:
		if len(p.Phases) == 0 {
			return fmt.Errorf("phased with no phases")
		}
		for _, ph := range p.Phases {
			if err := checkProgram(ph); err != nil {
				return fmt.Errorf("phased: %w", err)
			}
		}
	default:
		return fmt.Errorf("unexpected program %T", p)
	}
	return nil
}

// FuzzDecode feeds arbitrary text to Decode. Whatever it accepts must be
// runnable (times in range, positive limits, counts and sizes) and must
// survive an Encode→Decode round trip unchanged, bb token included, to
// the microsecond.
func FuzzDecode(f *testing.F) {
	f.Add("0 w 1 1200 0 write 8 10\n600.5 s 2 900 -3 sleep 600\n")
	f.Add("10 staged 2 600 5 bb 12.5 read 4 2\n20 b 1 3000 0 bursty 3 60 2 1\n")
	f.Add("5 ck 1 900 0 bb 0.25 phased 3 read 8 20 sleep 120 write 8 40\n")
	f.Add("NaN a 1 10 0 sleep 1\n0 a 1 10 0 phased NaN sleep 1\n0 a 1 10 0 bb NaN write 1e30 1\n")
	// Truncating these times to the microsecond drifted on the round trip.
	f.Add("256.72209 a 1 256.72209 0 sleep 8310.596133\n")
	f.Fuzz(func(t *testing.T, in string) {
		jobs, err := Decode(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, j := range jobs {
			s := j.Spec
			if j.At < 0 || s.Limit <= 0 || s.Nodes < 1 || s.BBBytes < 0 || math.IsInf(s.BBBytes, 0) {
				t.Fatalf("job %d out of range: %+v", i, j)
			}
			if err := checkProgram(s.Program); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, jobs); err != nil {
			t.Fatalf("encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of encoded jobs: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(jobs, again) {
			t.Fatalf("round trip changed the jobs:\n%+v\n%+v", jobs, again)
		}
	})
}
