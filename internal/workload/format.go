package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/slurm"
)

// The workload file format is a line-oriented text format in the spirit of
// the Standard Workload Format (SWF), extended with the job's program:
//
//	# comment
//	<submit_s> <name> <nodes> <limit_s> <priority> sleep <seconds>
//	<submit_s> <name> <nodes> <limit_s> <priority> write <threads> <gib_per_thread>
//	<submit_s> <name> <nodes> <limit_s> <priority> read <threads> <gib_per_thread>
//	<submit_s> <name> <nodes> <limit_s> <priority> bursty <cycles> <compute_s> <threads> <gib_per_thread>
//	<submit_s> <name> <nodes> <limit_s> <priority> phased <n> <program1...> <program2...> ...
//
// A phased program nests n sub-programs back to back (each sub-program has
// a fixed arity, so the encoding is unambiguous). The fingerprint defaults
// to the name. Fields are whitespace-separated, so Encode refuses a name
// that is empty or contains whitespace (unicode.IsSpace).
//
// An optional `bb <gib>` token between the priority and the program
// declares the job's burst-buffer reservation; jobs without it use no
// burst buffer, and decoders predating the token never see it (it is only
// emitted when the demand is non-zero).
//
// Decode accepts only values a simulation can run: times are finite
// seconds in [0, maxSeconds], rounded to the microsecond (limits and
// sleeps at least one), counts are
// integers in [1, MaxInt32] and sizes are finite positive GiB, so a
// corrupt field such as NaN or 1e30 is an error rather than a negative
// time or thread count.

// TimedSpec is a job spec with its submission time.
type TimedSpec struct {
	At   des.Time
	Spec slurm.JobSpec
}

// Encode writes timed specs in the workload file format.
func Encode(w io.Writer, jobs []TimedSpec) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# wasched workload v1")
	fmt.Fprintln(bw, "# submit_s name nodes limit_s priority program...")
	for i, tj := range jobs {
		if name := tj.Spec.Name; name == "" || strings.IndexFunc(name, unicode.IsSpace) >= 0 {
			return fmt.Errorf("workload: job %d: name %q is empty or contains whitespace", i, name)
		}
		prog, err := encodeProgram(tj.Spec.Program)
		if err != nil {
			return fmt.Errorf("workload: job %d (%s): %w", i, tj.Spec.Name, err)
		}
		if tj.Spec.BBBytes > 0 {
			prog = fmt.Sprintf("bb %g %s", tj.Spec.BBBytes/pfs.GiB, prog)
		}
		fmt.Fprintf(bw, "%g %s %d %g %d %s\n",
			tj.At.Seconds(), tj.Spec.Name, tj.Spec.Nodes,
			tj.Spec.Limit.Seconds(), tj.Spec.Priority, prog)
	}
	return bw.Flush()
}

func encodeProgram(p cluster.Program) (string, error) {
	switch prog := p.(type) {
	case cluster.SleepProgram:
		return fmt.Sprintf("sleep %g", prog.D.Seconds()), nil
	case cluster.WriteProgram:
		return fmt.Sprintf("write %d %g", prog.Threads, prog.BytesPerThread/pfs.GiB), nil
	case cluster.ReadProgram:
		return fmt.Sprintf("read %d %g", prog.Threads, prog.BytesPerThread/pfs.GiB), nil
	case cluster.BurstyProgram:
		return fmt.Sprintf("bursty %d %g %d %g",
			prog.Cycles, prog.Compute.Seconds(), prog.Threads, prog.BytesPerThread/pfs.GiB), nil
	case cluster.PhasedProgram:
		parts := []string{fmt.Sprintf("phased %d", len(prog.Phases))}
		for _, ph := range prog.Phases {
			enc, err := encodeProgram(ph)
			if err != nil {
				return "", fmt.Errorf("phased: %w", err)
			}
			parts = append(parts, enc)
		}
		return strings.Join(parts, " "), nil
	default:
		return "", fmt.Errorf("unencodable program type %T", p)
	}
}

// Decode parses a workload file.
func Decode(r io.Reader) ([]TimedSpec, error) {
	var out []TimedSpec
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tj, err := decodeLine(line)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		out = append(out, tj)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	return out, nil
}

func decodeLine(line string) (TimedSpec, error) {
	f := strings.Fields(line)
	if len(f) < 6 {
		return TimedSpec{}, fmt.Errorf("want at least 6 fields, got %d", len(f))
	}
	submit, ok := seconds(f[0], false)
	if !ok {
		return TimedSpec{}, fmt.Errorf("bad submit time %q", f[0])
	}
	nodes, err := strconv.Atoi(f[2])
	if err != nil || nodes <= 0 {
		return TimedSpec{}, fmt.Errorf("bad node count %q", f[2])
	}
	limit, ok := seconds(f[3], true)
	if !ok {
		return TimedSpec{}, fmt.Errorf("bad limit %q", f[3])
	}
	prio, err := strconv.ParseInt(f[4], 10, 64)
	if err != nil {
		return TimedSpec{}, fmt.Errorf("bad priority %q", f[4])
	}
	rest := f[5:]
	bbBytes := 0.0
	if rest[0] == "bb" {
		if len(rest) < 3 {
			return TimedSpec{}, fmt.Errorf("bb token needs GiB and a program")
		}
		if bbBytes, ok = gibibytes(rest[1]); !ok {
			return TimedSpec{}, fmt.Errorf("bad bb GiB %q", rest[1])
		}
		rest = rest[2:]
	}
	prog, rest, err := decodeProgram(rest[0], rest[1:])
	if err != nil {
		return TimedSpec{}, err
	}
	if len(rest) != 0 {
		return TimedSpec{}, fmt.Errorf("trailing fields after program: %v", rest)
	}
	return TimedSpec{
		At: des.Time(submit),
		Spec: slurm.JobSpec{
			Name:        f[1],
			Fingerprint: f[1],
			Nodes:       nodes,
			Limit:       limit,
			Priority:    prio,
			Program:     prog,
			BBBytes:     bbBytes,
		},
	}, nil
}

// maxSeconds bounds every time field of both trace formats (the workload
// format and SWF): a century is far past any workload, and it keeps every
// derived simulation time (an SWF job's submit + twice its runtime +
// margin) well inside des's int64 microsecond clock. A corrupt value such
// as 1e30 would otherwise overflow the conversion into a negative time.
const maxSeconds = 100 * 365 * 24 * 3600

// seconds parses a time field in seconds: finite and in [0, maxSeconds],
// and at least a microsecond when positive is set. The negated comparison
// also rejects NaN. It rounds to the nearest microsecond, so a time that
// Encode printed decodes to exactly the value it came from (truncating
// loses a microsecond on about 2% of them).
func seconds(field string, positive bool) (des.Duration, bool) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil || !(v >= 0 && v <= maxSeconds) {
		return 0, false
	}
	d := des.Duration(math.Round(v * float64(des.Second)))
	return d, d > 0 || !positive
}

// count parses a positive integer count (threads, cycles, phases) no
// larger than MaxInt32, so derived sizes such as a bursty program's
// 2·cycles phases cannot overflow.
func count(field string) (int, bool) {
	n, err := strconv.Atoi(field)
	return n, err == nil && n >= 1 && n <= math.MaxInt32
}

// gibibytes parses a size field in GiB into bytes: positive and finite in
// bytes. The negated comparison also rejects NaN.
func gibibytes(field string) (float64, bool) {
	v, err := strconv.ParseFloat(field, 64)
	b := v * pfs.GiB
	return b, err == nil && v > 0 && !math.IsInf(b, 0)
}

// decodeProgram parses one program starting at args and returns the
// remaining unconsumed fields, enabling the nested phased encoding.
func decodeProgram(kind string, args []string) (cluster.Program, []string, error) {
	arg := func(i int) string {
		if i < len(args) {
			return args[i]
		}
		return ""
	}
	switch kind {
	case "sleep":
		d, ok := seconds(arg(0), true)
		if !ok {
			return nil, nil, fmt.Errorf("sleep needs a positive duration, got %q", arg(0))
		}
		return cluster.SleepProgram{D: d}, args[1:], nil
	case "write", "read":
		threads, ok := count(arg(0))
		if !ok {
			return nil, nil, fmt.Errorf("%s needs a thread count, got %q", kind, arg(0))
		}
		bytes, ok := gibibytes(arg(1))
		if !ok {
			return nil, nil, fmt.Errorf("%s needs GiB per thread, got %q", kind, arg(1))
		}
		if kind == "read" {
			return cluster.ReadProgram{Threads: threads, BytesPerThread: bytes}, args[2:], nil
		}
		return cluster.WriteProgram{Threads: threads, BytesPerThread: bytes}, args[2:], nil
	case "bursty":
		cycles, ok := count(arg(0))
		if !ok {
			return nil, nil, fmt.Errorf("bursty needs cycles, got %q", arg(0))
		}
		compute, ok := seconds(arg(1), false)
		if !ok {
			return nil, nil, fmt.Errorf("bursty needs compute seconds, got %q", arg(1))
		}
		threads, ok := count(arg(2))
		if !ok {
			return nil, nil, fmt.Errorf("bursty needs threads, got %q", arg(2))
		}
		bytes, ok := gibibytes(arg(3))
		if !ok {
			return nil, nil, fmt.Errorf("bursty needs GiB per thread, got %q", arg(3))
		}
		return cluster.BurstyProgram{
			Cycles:         cycles,
			Compute:        compute,
			Threads:        threads,
			BytesPerThread: bytes,
		}, args[4:], nil
	case "phased":
		// Every phase takes at least two fields (its kind and one
		// argument), which bounds the count by what the line holds.
		n, ok := count(arg(0))
		if !ok || n > (len(args)-1)/2 {
			return nil, nil, fmt.Errorf("phased needs a phase count its phases fill, got %q", arg(0))
		}
		rest := args[1:]
		phases := make([]cluster.Program, 0, n)
		for i := 0; i < n; i++ {
			if len(rest) == 0 {
				return nil, nil, fmt.Errorf("phased: missing phase %d of %d", i+1, n)
			}
			sub, remaining, err := decodeProgram(rest[0], rest[1:])
			if err != nil {
				return nil, nil, fmt.Errorf("phased phase %d: %w", i+1, err)
			}
			phases = append(phases, sub)
			rest = remaining
		}
		return cluster.PhasedProgram{Phases: phases}, rest, nil
	default:
		return nil, nil, fmt.Errorf("unknown program kind %q", kind)
	}
}

// Timed wraps specs with a single submission time (batch submission).
func Timed(specs []slurm.JobSpec, at des.Time) []TimedSpec {
	out := make([]TimedSpec, len(specs))
	for i, s := range specs {
		out[i] = TimedSpec{At: at, Spec: s}
	}
	return out
}

// SubmitTimed schedules all timed specs on the controller.
func SubmitTimed(ctl *slurm.Controller, jobs []TimedSpec) error {
	for i, tj := range jobs {
		if err := ctl.SubmitAt(tj.Spec, tj.At); err != nil {
			return fmt.Errorf("workload: submit %d (%s): %w", i, tj.Spec.Name, err)
		}
	}
	return nil
}
