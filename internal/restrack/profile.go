// Package restrack implements reservation tracking for backfill scheduling.
//
// Its central type is Profile, a piecewise-constant function of simulation
// time representing the committed usage of one cluster-wide resource
// (nodes, Lustre bandwidth, or the "adjusted" bandwidth of the two-group
// approximation). The node tracker NT, the Lustre throughput tracker LT
// (paper Algorithm 2) and the adjusted tracker AT (paper Algorithm 5) are
// typed wrappers around Profile.
package restrack

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"wasched/internal/des"
)

// point is a breakpoint: the profile holds value v from time t (inclusive)
// until the next breakpoint (exclusive).
type point struct {
	t des.Time
	v float64
}

// Profile is a piecewise-constant usage function over simulation time.
// It starts at zero everywhere; Add superimposes box functions. The zero
// value is ready to use.
//
// Profiles tolerate the floating-point drift inherent in adding and
// removing many bandwidth reservations: all capacity comparisons use a
// relative tolerance (see fits).
type Profile struct {
	pts []point // sorted by t; invariant: len==0 or pts[0].v may be any value, value before pts[0].t is 0
}

// NewProfile returns an empty profile (zero usage everywhere).
func NewProfile() *Profile { return &Profile{} }

// Len returns the number of breakpoints, exposed for capacity diagnostics.
func (p *Profile) Len() int { return len(p.pts) }

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	q := &Profile{pts: make([]point, len(p.pts))}
	copy(q.pts, p.pts)
	return q
}

// Reset removes all reservations.
func (p *Profile) Reset() { p.pts = p.pts[:0] }

// locate returns the index of the last breakpoint with t <= x, or -1 when x
// precedes all breakpoints.
func (p *Profile) locate(x des.Time) int {
	return sort.Search(len(p.pts), func(i int) bool { return p.pts[i].t > x }) - 1
}

// ValueAt returns the usage at time t.
func (p *Profile) ValueAt(t des.Time) float64 {
	i := p.locate(t)
	if i < 0 {
		return 0
	}
	return p.pts[i].v
}

// ensureBreak inserts a breakpoint at t (if absent) whose value equals the
// profile's value at t, and returns its index.
func (p *Profile) ensureBreak(t des.Time) int {
	i := p.locate(t)
	if i >= 0 && p.pts[i].t == t {
		return i
	}
	v := 0.0
	if i >= 0 {
		v = p.pts[i].v
	}
	p.pts = append(p.pts, point{})
	copy(p.pts[i+2:], p.pts[i+1:])
	p.pts[i+1] = point{t: t, v: v}
	return i + 1
}

// Add superimposes delta over the half-open interval [lo, hi). Negative
// deltas release previously added reservations. Empty or inverted intervals
// are no-ops. hi may be des.MaxTime for an open-ended reservation.
func (p *Profile) Add(lo, hi des.Time, delta float64) {
	if hi <= lo || delta == 0 {
		return
	}
	i := p.ensureBreak(lo)
	var j int
	if hi == des.MaxTime {
		j = len(p.pts) // no closing breakpoint: delta extends forever
	} else {
		j = p.ensureBreak(hi)
	}
	for k := i; k < j; k++ {
		p.pts[k].v += delta
	}
	p.compact()
}

// compact merges adjacent breakpoints whose values became (numerically)
// identical and drops a leading zero run, bounding memory over long runs.
func (p *Profile) compact() {
	if len(p.pts) == 0 {
		return
	}
	out := p.pts[:0]
	prev := 0.0 // value before the first breakpoint is 0
	for _, pt := range p.pts {
		if sameValue(pt.v, prev) {
			continue
		}
		out = append(out, pt)
		prev = pt.v
	}
	p.pts = out
}

// sameValue reports whether two usage values are equal within the
// accumulated floating-point tolerance of reservation arithmetic.
func sameValue(a, b float64) bool {
	d := math.Abs(a - b)
	if d == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*math.Max(scale, 1)
}

// fits reports whether usage+need stays within limit, with tolerance.
func fits(usage, need, limit float64) bool {
	slack := 1e-9 * math.Max(math.Abs(limit), 1)
	return usage+need <= limit+slack
}

// MaxOver returns the maximum usage over [lo, hi). An empty interval
// yields the value at lo.
func (p *Profile) MaxOver(lo, hi des.Time) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	max := p.ValueAt(lo)
	i := p.locate(lo) + 1
	for ; i < len(p.pts) && p.pts[i].t < hi; i++ {
		if p.pts[i].v > max {
			max = p.pts[i].v
		}
	}
	return max
}

// IntegralOver returns the integral of usage over [lo, hi) in value-seconds
// (e.g. node·s or byte). hi must be finite.
func (p *Profile) IntegralOver(lo, hi des.Time) float64 {
	if hi <= lo {
		return 0
	}
	total := 0.0
	t := lo
	v := p.ValueAt(lo)
	i := p.locate(lo) + 1
	for ; i < len(p.pts) && p.pts[i].t < hi; i++ {
		total += v * p.pts[i].t.Sub(t).Seconds()
		t = p.pts[i].t
		v = p.pts[i].v
	}
	total += v * hi.Sub(t).Seconds()
	return total
}

// EarliestFit returns the earliest time t >= from such that for every
// instant u in [t, t+dur), usage(u) + need <= limit. It returns
// (des.MaxTime, false) when no such time exists, which can only happen when
// need exceeds limit net of the profile's value at infinity.
//
// This is the primitive behind EarliestStartTime in paper Algorithms 1, 4
// and 7.
func (p *Profile) EarliestFit(from des.Time, dur des.Duration, need, limit float64) (des.Time, bool) {
	if dur < 0 {
		panic("restrack: negative duration")
	}
	t := from
	for {
		end := t.Add(des.Duration(dur))
		// Scan [t, end) for a violation.
		viol := des.Time(-1)
		if !fits(p.ValueAt(t), need, limit) {
			viol = t
		} else {
			for i := p.locate(t) + 1; i < len(p.pts) && p.pts[i].t < end; i++ {
				if !fits(p.pts[i].v, need, limit) {
					viol = p.pts[i].t
					break
				}
			}
		}
		if viol < 0 {
			return t, true
		}
		// Advance past the violating segment: the earliest possible fit
		// starts at the next breakpoint after viol where usage drops enough.
		next := des.MaxTime
		for i := p.locate(viol) + 1; i < len(p.pts); i++ {
			if fits(p.pts[i].v, need, limit) {
				next = p.pts[i].t
				break
			}
		}
		if next == des.MaxTime {
			// Usage never drops enough after viol; beyond the final
			// breakpoint the value is the last value, already checked.
			return des.MaxTime, false
		}
		t = next
	}
}

// String renders the profile for diagnostics, e.g. "[0 @10s→3 @25s→0]".
func (p *Profile) String() string {
	var b strings.Builder
	b.WriteString("[0")
	for _, pt := range p.pts {
		fmt.Fprintf(&b, " @%.3fs→%.4g", pt.t.Seconds(), pt.v)
	}
	b.WriteString("]")
	return b.String()
}
