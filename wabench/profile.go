package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profiledPackages are the packages whose cumulative CPU share the
// profiled run reports, as cpu_share.<name>.
var profiledPackages = []string{
	"restrack", "sched", "schedcheck", "slurm", "ldms", "sos",
	"analytics", "pfs", "des", "tbf", "bb",
}

const modulePrefix = "wasched/internal/"

// cpuShares holds, per package of profiledPackages, two shares of all CPU
// samples of a profile.
type cpuShares struct {
	// cum counts the samples whose stack holds at least one of the
	// package's functions: its cumulative share, as `pprof -top -cum`
	// gives it per function. Callers include their callees, so the
	// driving packages (des, schedcheck) are near 1.
	cum map[string]float64
	// self counts the samples whose innermost module function is the
	// package's, with runtime and standard-library frames charged to their
	// caller: the CPU a package's own code spends, the next hot spot.
	self map[string]float64
}

// readProfile reads a CPU profile with `go tool pprof -traces`.
func readProfile(profPath string) (cpuShares, error) {
	var out, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profPath)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out.Bytes())
}

// parseTraces sums the sample values of `pprof -traces` output per
// package. A trace is a block after a separator line; its first line holds
// the sample value and the leaf frame, the others one caller each, and
// inlined frames carry an "(inline)" suffix.
func parseTraces(text []byte) (cpuShares, error) {
	var total, value float64
	cum := make(map[string]float64)
	self := make(map[string]float64)
	seen := make(map[string]bool)
	leaf := ""
	flush := func() {
		for pkg := range seen {
			cum[pkg] += value
		}
		if leaf != "" {
			self[leaf] += value
		}
		clear(seen)
		value, leaf = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	inTraces, first := false, false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 1 && strings.HasPrefix(fields[0], "-----------+"):
			flush()
			inTraces, first = true, true
			continue
		case !inTraces || len(fields) == 0:
			continue
		}
		if first {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return cpuShares{}, fmt.Errorf("pprof: bad trace header %q", sc.Text())
			}
			value = d.Seconds()
			total += value
			fields = fields[1:]
			first = false
		}
		if pkg, ok := internalPackage(fields[0]); ok {
			seen[pkg] = true
			if leaf == "" {
				leaf = pkg
			}
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return cpuShares{}, err
	}
	if total == 0 {
		return cpuShares{}, fmt.Errorf("pprof: profile holds no samples")
	}
	out := cpuShares{cum: make(map[string]float64), self: make(map[string]float64)}
	for _, p := range profiledPackages {
		out.cum[p] = cum[p] / total
		out.self[p] = self[p] / total
	}
	return out, nil
}

// internalPackage returns the name of the module's internal package a
// frame (a qualified function name) belongs to.
func internalPackage(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, modulePrefix)
	if !ok {
		return "", false
	}
	i := strings.IndexAny(rest, "./")
	if i < 0 {
		return "", false
	}
	return rest[:i], true
}
