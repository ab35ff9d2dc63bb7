// Package sos is a stand-in for LDMS's Scalable Object Store: an in-memory,
// append-only, schema'd time-series store.
//
// The monitoring pipeline (internal/ldms) appends one record per node per
// sampling period into a container; the analytical services
// (internal/analytics) query containers by source and time range to compute
// job resource usage and the current total file-system throughput. Keeping
// this layer explicit — instead of letting the scheduler read simulator
// ground truth — preserves the estimate-versus-reality gap that the paper's
// design contends with.
//
// Each source's records live in a power-of-two ring buffer, so retention
// trimming only advances the ring's head and a steady-state append (one
// record in, older records trimmed out) reuses slots instead of
// allocating.
package sos

import (
	"fmt"

	"wasched/internal/des"
)

// Schema describes the metric columns of a container.
type Schema struct {
	Name    string
	Metrics []string
}

// Validate checks the schema for empty or duplicate names.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("sos: schema needs a name")
	}
	if len(s.Metrics) == 0 {
		return fmt.Errorf("sos: schema %q needs at least one metric", s.Name)
	}
	seen := make(map[string]bool, len(s.Metrics))
	for _, m := range s.Metrics {
		if m == "" {
			return fmt.Errorf("sos: schema %q has an empty metric name", s.Name)
		}
		if seen[m] {
			return fmt.Errorf("sos: schema %q has duplicate metric %q", s.Name, m)
		}
		seen[m] = true
	}
	return nil
}

// Column returns the index of a metric in the schema, or -1.
func (s Schema) Column(metric string) int {
	for i, m := range s.Metrics {
		if m == metric {
			return i
		}
	}
	return -1
}

// Record is one appended sample as returned by queries. Values is a copy
// owned by the caller: ring slots are reused once trimmed records are
// overwritten, so a returned record never aliases container storage and
// stays unchanged however the container moves on.
type Record struct {
	At     des.Time
	Source string
	Values []float64 // aligned with Schema.Metrics
}

// Value returns the record's value in the given schema column.
func (r Record) Value(col int) float64 { return r.Values[col] }

// Container is an append-only series of records under one schema, indexed
// by source and time.
type Container struct {
	schema Schema
	// Per-source ring buffers. Records within a source are strictly
	// ordered by time (samplers emit monotonically).
	bySource map[string]*series
	sources  []string // deterministic iteration order
	count    int
}

// series is one source's records in a ring: logical record i (0 = oldest)
// sits in physical slot (head+i) & (cap-1), with its time in times and
// its row in values[slot*width : (slot+1)*width]. The capacity is zero or
// a power of two and only doubles when the ring is full.
type series struct {
	times  []des.Time
	values []float64
	width  int
	head   int
	n      int
}

// row returns the values of physical slot k.
func (s *series) row(k int) []float64 { return s.values[k*s.width : (k+1)*s.width] }

// slot maps a logical record index to its physical slot.
func (s *series) slot(i int) int { return (s.head + i) & (len(s.times) - 1) }

// search returns the first logical index whose time is >= t (or > t when
// strict), or s.n if there is none.
func (s *series) search(t des.Time, strict bool) int {
	lo, hi := 0, s.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if at := s.times[s.slot(m)]; at < t || strict && at == t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// grow doubles the ring's capacity, unrolling the retained records to the
// front of the new buffers.
func (s *series) grow() {
	c := 2 * len(s.times)
	if c == 0 {
		c = 1
	}
	//waschedlint:allow hotalloc doubling a full ring is amortised O(1) and stops once retention bounds the record count
	times, values := make([]des.Time, c), make([]float64, c*s.width)
	for i := 0; i < s.n; i++ {
		k := s.slot(i)
		times[i] = s.times[k]
		copy(values[i*s.width:], s.row(k))
	}
	s.times, s.values, s.head = times, values, 0
}

// record returns a copy of logical record i.
func (s *series) record(source string, i int) Record {
	k := s.slot(i)
	return Record{At: s.times[k], Source: source, Values: append([]float64(nil), s.row(k)...)}
}

// Store is a named collection of containers.
type Store struct {
	containers map[string]*Container
	names      []string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{containers: make(map[string]*Container)}
}

// CreateContainer adds a container for the schema. Creating a container
// that already exists with an identical schema returns the existing one;
// a conflicting schema is an error.
func (st *Store) CreateContainer(schema Schema) (*Container, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if c, ok := st.containers[schema.Name]; ok {
		if !schemaEqual(c.schema, schema) {
			return nil, fmt.Errorf("sos: container %q exists with a different schema", schema.Name)
		}
		return c, nil
	}
	c := &Container{schema: schema, bySource: make(map[string]*series)}
	st.containers[schema.Name] = c
	st.names = append(st.names, schema.Name)
	return c, nil
}

// Container returns a container by name.
func (st *Store) Container(name string) (*Container, bool) {
	c, ok := st.containers[name]
	return c, ok
}

// Names returns container names in creation order.
func (st *Store) Names() []string {
	out := make([]string, len(st.names))
	copy(out, st.names)
	return out
}

func schemaEqual(a, b Schema) bool {
	if a.Name != b.Name || len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for i := range a.Metrics {
		if a.Metrics[i] != b.Metrics[i] {
			return false
		}
	}
	return true
}

// Schema returns the container's schema.
func (c *Container) Schema() Schema { return c.schema }

// Len returns the total number of records in the container.
func (c *Container) Len() int { return c.count }

// Sources returns the source names seen so far, in first-seen order.
func (c *Container) Sources() []string {
	out := make([]string, len(c.sources))
	copy(out, c.sources)
	return out
}

// Append adds one record. Values must match the schema width, and time must
// not go backwards within a source (samplers are monotone). Once the ring
// holds as many slots as the retained records need, Append allocates
// nothing.
//
//waschedlint:hotpath
func (c *Container) Append(source string, at des.Time, values []float64) error {
	width := len(c.schema.Metrics)
	if len(values) != width {
		//waschedlint:allow hotalloc the error return formats its message once, off the steady state
		return fmt.Errorf("sos: container %q: got %d values, schema has %d", c.schema.Name, len(values), width)
	}
	s, ok := c.bySource[source]
	if !ok {
		s = &series{width: width} //waschedlint:allow hotalloc first-seen source registration happens once per source
		c.bySource[source] = s
		c.sources = append(c.sources, source)
	}
	if s.n > 0 {
		if last := s.times[s.slot(s.n-1)]; at < last {
			//waschedlint:allow hotalloc the error return formats its message once, off the steady state
			return fmt.Errorf("sos: container %q source %q: time %v precedes last %v", c.schema.Name, source, at, last)
		}
	}
	if s.n == len(s.times) {
		s.grow()
	}
	k := s.slot(s.n)
	s.times[k] = at
	copy(s.row(k), values)
	s.n++
	c.count++
	return nil
}

// Range returns all records with lo <= At < hi across all sources, ordered
// by source (first-seen order) then time.
func (c *Container) Range(lo, hi des.Time) []Record {
	var out []Record
	for _, src := range c.sources {
		out = append(out, c.RangeBySource(src, lo, hi)...)
	}
	return out
}

// RangeBySource returns the records of one source with lo <= At < hi in
// time order.
func (c *Container) RangeBySource(source string, lo, hi des.Time) []Record {
	s, ok := c.bySource[source]
	if !ok {
		return nil
	}
	i, j := s.search(lo, false), s.search(hi, false)
	out := make([]Record, 0, max(j-i, 0))
	for k := i; k < j; k++ {
		out = append(out, s.record(source, k))
	}
	return out
}

// LastBefore returns the newest record of a source with At <= at.
func (c *Container) LastBefore(source string, at des.Time) (Record, bool) {
	s, ok := c.bySource[source]
	if !ok {
		return Record{}, false
	}
	i := s.search(at, true) - 1
	if i < 0 {
		return Record{}, false
	}
	return s.record(source, i), true
}

// FirstAfter returns the oldest record of a source with At >= at.
func (c *Container) FirstAfter(source string, at des.Time) (Record, bool) {
	s, ok := c.bySource[source]
	if !ok {
		return Record{}, false
	}
	i := s.search(at, false)
	if i >= s.n {
		return Record{}, false
	}
	return s.record(source, i), true
}

// DeltaOver computes, for one source and one metric column, the increase of
// a cumulative counter over [lo, hi], interpolating linearly between
// samples at the boundaries. It returns false when the source has no
// samples bracketing any part of the window.
//
//waschedlint:hotpath
func (c *Container) DeltaOver(source string, col int, lo, hi des.Time) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	a, okA := c.interp(source, col, lo)
	b, okB := c.interp(source, col, hi)
	if !okA || !okB {
		return 0, false
	}
	return b - a, true
}

// interp estimates the cumulative counter value at time t by linear
// interpolation (clamped to the first/last sample).
func (c *Container) interp(source string, col int, t des.Time) (float64, bool) {
	s, ok := c.bySource[source]
	if !ok || s.n == 0 {
		return 0, false
	}
	i := s.search(t, false)
	if i == 0 {
		return s.row(s.slot(0))[col], true
	}
	if i == s.n {
		return s.row(s.slot(s.n - 1))[col], true
	}
	k0, k1 := s.slot(i-1), s.slot(i)
	t0, t1 := s.times[k0], s.times[k1]
	v0, v1 := s.row(k0)[col], s.row(k1)[col]
	if t1 == t0 {
		return v1, true
	}
	f := float64(t-t0) / float64(t1-t0)
	return v0 + f*(v1-v0), true
}

// Trim discards records older than the cutoff to bound memory during long
// runs. Records exactly at the cutoff are retained. Trimming advances each
// ring's head and moves no records.
//
//waschedlint:hotpath
func (c *Container) Trim(before des.Time) int {
	removed := 0
	for _, src := range c.sources {
		s := c.bySource[src]
		i := s.search(before, false)
		if i == 0 {
			continue
		}
		removed += i
		s.head = s.slot(i)
		s.n -= i
	}
	c.count -= removed
	return removed
}
