package sos

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"wasched/internal/des"
)

// The reference model: every record of a container in one append-order
// slice, queried by linear scans. It shares no code with the ring, so a
// query that agrees with it agrees with the container's specification
// rather than with the ring's own index arithmetic.

type modelRecord struct {
	src  string
	at   des.Time
	vals []float64
}

type model struct {
	width   int
	recs    []modelRecord
	sources []string
}

func (m *model) append(src string, at des.Time, vals []float64) bool {
	if len(vals) != m.width {
		return false
	}
	seen := false
	for _, s := range m.sources {
		seen = seen || s == src
	}
	if !seen {
		m.sources = append(m.sources, src)
	}
	for i := len(m.recs) - 1; i >= 0; i-- {
		if m.recs[i].src == src {
			if at < m.recs[i].at {
				return false
			}
			break
		}
	}
	m.recs = append(m.recs, modelRecord{src: src, at: at, vals: append([]float64(nil), vals...)})
	return true
}

func (m *model) trim(before des.Time) int {
	var kept []modelRecord
	for _, r := range m.recs {
		if r.at >= before {
			kept = append(kept, r)
		}
	}
	removed := len(m.recs) - len(kept)
	m.recs = kept
	return removed
}

// bySource returns one source's records in time order.
func (m *model) bySource(src string) []modelRecord {
	var out []modelRecord
	for _, r := range m.recs {
		if r.src == src {
			out = append(out, r)
		}
	}
	return out
}

func (m *model) rangeBySource(src string, lo, hi des.Time) []modelRecord {
	var out []modelRecord
	for _, r := range m.bySource(src) {
		if lo <= r.at && r.at < hi {
			out = append(out, r)
		}
	}
	return out
}

func (m *model) rangeAll(lo, hi des.Time) []modelRecord {
	var out []modelRecord
	for _, src := range m.sources {
		out = append(out, m.rangeBySource(src, lo, hi)...)
	}
	return out
}

func (m *model) lastBefore(src string, at des.Time) (modelRecord, bool) {
	var out modelRecord
	found := false
	for _, r := range m.bySource(src) {
		if r.at <= at {
			out, found = r, true
		}
	}
	return out, found
}

func (m *model) firstAfter(src string, at des.Time) (modelRecord, bool) {
	for _, r := range m.bySource(src) {
		if r.at >= at {
			return r, true
		}
	}
	return modelRecord{}, false
}

// valueAt clamps to the first/last sample and otherwise interpolates
// between the last sample before t and the first sample at or after t.
func (m *model) valueAt(src string, col int, t des.Time) (float64, bool) {
	recs := m.bySource(src)
	if len(recs) == 0 {
		return 0, false
	}
	if t <= recs[0].at {
		return recs[0].vals[col], true
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].at >= t {
			a, b := recs[i-1], recs[i]
			if a.at == b.at {
				return b.vals[col], true
			}
			f := float64(t-a.at) / float64(b.at-a.at)
			return a.vals[col] + f*(b.vals[col]-a.vals[col]), true
		}
	}
	return recs[len(recs)-1].vals[col], true
}

func (m *model) deltaOver(src string, col int, lo, hi des.Time) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	a, okA := m.valueAt(src, col, lo)
	b, okB := m.valueAt(src, col, hi)
	if !okA || !okB {
		return 0, false
	}
	return b - a, true
}

// ringCoverage records which ring states an op sequence reached.
type ringCoverage struct {
	wrapped     bool // a record landed in a slot before the head
	grewWrapped bool // the ring doubled while its head was not slot 0
	emptied     bool // a trim left an allocated ring with no records
}

// Fuzz op encoding: each op is three bytes. The first selects the kind
// (b0 % 8) and the source (b0/8 % 3); the other two are parameters.
const (
	opAppend = iota // b1: time step (>= 0xF0 steps back); b2: value (0xFF = wrong width)
	opAppend2
	opAppend3
	opTrim       // b1: cutoff
	opRange      // b1, b2: bounds
	opRangeBySrc // b1, b2: bounds
	opLastFirst  // b1: LastBefore time, b2: FirstAfter time
	opDelta      // b1: window start, b2: column and window length
)

var fuzzSources = [3]string{"n0", "n1", "n2"}

func op(kind, src int, b1, b2 byte) []byte { return []byte{byte(kind + 8*src), b1, b2} }

func ops(seq ...[]byte) []byte { return bytes.Join(seq, nil) }

// checkOps replays an op sequence against a container and the model,
// failing on the first disagreement.
func checkOps(t *testing.T, data []byte) ringCoverage {
	t.Helper()
	st := NewStore()
	c, _ := st.CreateContainer(Schema{Name: "m", Metrics: []string{"a", "b"}})
	m := &model{width: 2}
	var cov ringCoverage
	var clock des.Time
	// q maps a parameter byte to a query time near the clock, on
	// half-second offsets so interpolation lands between samples.
	q := func(b byte) des.Time { return clock - des.Time(int64(b%128)-8)*des.Time(des.Second)/2 }
	for len(data) >= 3 {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		src := fuzzSources[int(b0/8)%len(fuzzSources)]
		switch int(b0 % 8) {
		case opAppend, opAppend2, opAppend3:
			at := clock + des.Time(b1%4)*des.Time(des.Second)
			if b1 >= 0xF0 {
				at = clock - des.Time(b1%4+1)*des.Time(des.Second)
			}
			vals := []float64{float64(b2), float64(b1) * 1e9}
			if b2 == 0xFF {
				vals = vals[:1]
			}
			// The capacity of a full ring whose head is not slot 0: an
			// accepted append must double it while wrapped.
			fullCap := 0
			if s := c.bySource[src]; s != nil && s.n == len(s.times) && s.head != 0 {
				fullCap = len(s.times)
			}
			ok := m.append(src, at, vals)
			if err := c.Append(src, at, vals); (err == nil) != ok {
				t.Fatalf("Append(%s, %v) error %v, model accepts %v", src, at, err, ok)
			}
			if ok {
				clock = max(clock, at)
				s := c.bySource[src]
				cov.wrapped = cov.wrapped || s.slot(s.n-1) < s.head
				cov.grewWrapped = cov.grewWrapped || fullCap > 0 && len(s.times) == 2*fullCap
			}
		case opTrim:
			before := q(b1)
			if got, want := c.Trim(before), m.trim(before); got != want {
				t.Fatalf("Trim(%v) removed %d, model %d", before, got, want)
			}
			for _, s := range c.bySource {
				cov.emptied = cov.emptied || s.n == 0 && len(s.times) > 0
			}
		case opRange:
			lo, hi := q(b1), q(b2)
			sameRecords(t, "Range", c.Range(lo, hi), m.rangeAll(lo, hi))
		case opRangeBySrc:
			lo, hi := q(b1), q(b2)
			sameRecords(t, "RangeBySource", c.RangeBySource(src, lo, hi), m.rangeBySource(src, lo, hi))
		case opLastFirst:
			r, ok := c.LastBefore(src, q(b1))
			w, wok := m.lastBefore(src, q(b1))
			sameLookup(t, "LastBefore", r, ok, w, wok)
			r, ok = c.FirstAfter(src, q(b2))
			w, wok = m.firstAfter(src, q(b2))
			sameLookup(t, "FirstAfter", r, ok, w, wok)
		case opDelta:
			col := int(b2 & 1)
			lo := q(b1)
			hi := lo + des.Time(int64(b2>>1)%32)*des.Time(des.Second)/2
			got, ok := c.DeltaOver(src, col, lo, hi)
			want, wok := m.deltaOver(src, col, lo, hi)
			if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DeltaOver(%s, %d, %v, %v) = %v %v, model %v %v", src, col, lo, hi, got, ok, want, wok)
			}
		}
		if c.Len() != len(m.recs) {
			t.Fatalf("Len %d, model %d", c.Len(), len(m.recs))
		}
		if got := c.Sources(); !slices.Equal(got, m.sources) {
			t.Fatalf("Sources %v, model %v", got, m.sources)
		}
	}
	sameRecords(t, "final Range", c.Range(math.MinInt64, math.MaxInt64), m.rangeAll(math.MinInt64, math.MaxInt64))
	return cov
}

func sameRecords(t *testing.T, what string, got []Record, want []modelRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, model %d", what, len(got), len(want))
	}
	for i := range got {
		sameLookup(t, what, got[i], true, want[i], true)
	}
}

func sameLookup(t *testing.T, what string, got Record, ok bool, want modelRecord, wok bool) {
	t.Helper()
	if ok != wok {
		t.Fatalf("%s: found %v, model %v", what, ok, wok)
	}
	if !ok {
		return
	}
	if got.At != want.at || got.Source != want.src || len(got.Values) != len(want.vals) {
		t.Fatalf("%s: %+v, model %+v", what, got, want)
	}
	for j := range want.vals {
		if got.Values[j] != want.vals[j] {
			t.Fatalf("%s: %+v, model %+v", what, got, want)
		}
	}
}

// ringScenarios are op sequences that drive the ring through its edge
// states; they seed the fuzz corpus and run as a plain test, which also
// checks that each reaches the state it is named for.
var ringScenarios = []struct {
	name    string
	data    []byte
	reached func(ringCoverage) bool
}{
	// Four records fill a 4-slot ring; trimming two moves the head to
	// slot 2, two more appends wrap into slots 0-1, and the fifth
	// retained record doubles the ring while the head is at slot 2.
	{"grow-while-wrapped", ops(
		op(opAppend, 0, 1, 10), op(opAppend, 0, 1, 11), op(opAppend, 0, 1, 12), op(opAppend, 0, 1, 13),
		op(opTrim, 0, 10, 0),
		op(opAppend, 0, 1, 14), op(opAppend, 0, 1, 15),
		op(opAppend, 0, 1, 16),
		op(opRange, 0, 127, 0), op(opRangeBySrc, 0, 20, 3), op(opLastFirst, 0, 11, 13),
		op(opRange, 0, 0, 127), op(opRangeBySrc, 0, 3, 20), // lo > hi: no records
		op(opDelta, 0, 13, 21), op(opDelta, 0, 9, 40),
	), func(c ringCoverage) bool { return c.wrapped && c.grewWrapped }},
	// Steady-state retention over two sources: appends wrap the ring
	// again and again while trims keep the record count constant.
	{"trim-then-wrap", ops(
		op(opAppend, 0, 1, 1), op(opAppend, 1, 0, 2), op(opAppend, 0, 1, 3), op(opAppend, 1, 0, 4),
		op(opAppend, 0, 1, 5), op(opAppend, 1, 0, 6), op(opAppend, 0, 1, 7), op(opAppend, 1, 0, 8),
		op(opTrim, 0, 12, 0), op(opAppend, 0, 1, 9), op(opAppend, 1, 0, 10),
		op(opTrim, 0, 12, 0), op(opAppend, 0, 1, 11), op(opAppend, 1, 0, 12),
		op(opTrim, 0, 12, 0), op(opAppend, 0, 1, 13), op(opAppend, 1, 0, 14),
		op(opLastFirst, 0, 9, 12), op(opLastFirst, 1, 10, 11), op(opDelta, 1, 12, 31),
		op(opDelta, 0, 28, 62), // starts before the oldest record: clamps to it
		op(opRange, 0, 30, 0), op(opRangeBySrc, 1, 30, 4),
	), func(c ringCoverage) bool { return c.wrapped }},
	// Trimming past the newest record empties every ring; appends then
	// restart at the old head, including a rejected backwards step and a
	// wrong-width row.
	{"trim-to-empty", ops(
		op(opAppend, 0, 1, 1), op(opAppend, 0, 2, 2), op(opAppend, 2, 0, 3),
		op(opTrim, 0, 0, 0),
		op(opLastFirst, 0, 20, 20), op(opDelta, 0, 20, 9), op(opRange, 0, 100, 0),
		op(opAppend, 0, 0xF1, 4), op(opAppend, 0, 3, 0xFF), op(opAppend, 0, 1, 5),
		op(opAppend, 2, 2, 6), op(opRange, 0, 100, 0), op(opDelta, 2, 12, 33),
	), func(c ringCoverage) bool { return c.emptied }},
}

func TestRingMatchesModel(t *testing.T) {
	for _, sc := range ringScenarios {
		t.Run(sc.name, func(t *testing.T) {
			if cov := checkOps(t, sc.data); !sc.reached(cov) {
				t.Fatalf("scenario did not reach its ring state: %+v", cov)
			}
		})
	}
}

// FuzzContainer drives random Append/Trim/query sequences against the
// container and the reference model.
func FuzzContainer(f *testing.F) {
	for _, sc := range ringScenarios {
		f.Add(sc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOps(t, data)
	})
}
