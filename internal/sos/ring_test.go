package sos

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"wasched/internal/des"
)

// retention mirrors the monitoring pipeline's default: 2 h of 1 Hz
// records per source, trimmed after every 1 s flush.
const retention = 2 * des.Hour

func steadySources(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%02d", i)
	}
	return out
}

// tick appends one record per source at second sec and trims the
// retention window, the way one LDMS aggregation flush does.
func tick(c *Container, sources []string, sec int64, row []float64) {
	now := ts(sec)
	for _, src := range sources {
		row[0] = float64(sec)
		if err := c.Append(src, now, row); err != nil {
			panic(err)
		}
	}
	if now > des.Time(retention) {
		c.Trim(now.Add(-retention))
	}
}

func TestSteadyStateAppendTrimAllocatesNothing(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(Schema{Name: "m", Metrics: []string{"w", "r", "wo", "ro"}})
	sources := steadySources(16)
	row := make([]float64, 4)
	sec := int64(0)
	for ; sec < int64(retention/des.Second)+600; sec++ {
		tick(c, sources, sec, row)
	}
	allocs := testing.AllocsPerRun(500, func() {
		tick(c, sources, sec, row)
		sec++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append+Trim allocates %.1f times per flush, want 0", allocs)
	}
	if want := 16 * (int(retention/des.Second) + 1); c.Len() != want {
		t.Fatalf("retained %d records, want %d", c.Len(), want)
	}
}

func TestTrimLeavesRecordsInPlace(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	for i := int64(0); i < 100; i++ {
		_ = c.Append("n1", ts(i), []float64{float64(i), float64(-i)})
	}
	s := c.bySource["n1"]
	timesBuf, valuesBuf := &s.times[0], &s.values[0]
	type slot struct {
		phys int
		at   des.Time
		vals [2]float64
	}
	var before []slot
	for i := 0; i < s.n; i++ {
		k := s.slot(i)
		before = append(before, slot{k, s.times[k], [2]float64{s.values[2*k], s.values[2*k+1]}})
	}
	removed := c.Trim(ts(37))
	if removed != 37 {
		t.Fatalf("removed %d, want 37", removed)
	}
	if &s.times[0] != timesBuf || &s.values[0] != valuesBuf {
		t.Fatal("Trim reallocated the ring")
	}
	if s.n != len(before)-removed {
		t.Fatalf("n = %d, want %d", s.n, len(before)-removed)
	}
	for i := 0; i < s.n; i++ {
		want := before[i+removed]
		k := s.slot(i)
		got := slot{k, s.times[k], [2]float64{s.values[2*k], s.values[2*k+1]}}
		if got != want {
			t.Fatalf("retained record %d moved: %+v, was %+v", i, got, want)
		}
	}
}

func TestRingCapacityBound(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	sources := []string{"a", "b"}
	peak := make([]int, len(sources))
	// A retention window that grows and shrinks, so the peak is reached
	// mid-run and the ring must not keep growing after it.
	for sec := int64(0); sec < 5000; sec++ {
		for i, src := range sources {
			_ = c.Append(src, ts(sec), []float64{1, 2})
			peak[i] = max(peak[i], c.bySource[src].n)
		}
		window := 300 + 200*math.Sin(float64(sec)/400)
		c.Trim(ts(sec) - des.TimeFromSeconds(window))
	}
	for i, src := range sources {
		p, s := peak[i], c.bySource[src]
		capacity := len(s.times)
		if capacity&(capacity-1) != 0 {
			t.Errorf("%s: capacity %d is not a power of two", src, capacity)
		}
		if capacity > 2*p {
			t.Errorf("%s: capacity %d exceeds twice the peak of %d retained records", src, capacity, p)
		}
		if len(s.values) != 2*capacity {
			t.Errorf("%s: %d value slots for %d rows of width 2", src, len(s.values), capacity)
		}
	}
}

func TestQueriedRecordSurvivesWrap(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	for i := int64(0); i < 64; i++ {
		_ = c.Append("n1", ts(i), []float64{float64(i), 7})
	}
	kept, ok := c.LastBefore("n1", ts(10))
	ranged := c.RangeBySource("n1", ts(10), ts(11))
	if !ok || len(ranged) != 1 {
		t.Fatal("record 10 not found")
	}
	s := c.bySource["n1"]
	capacity := len(s.times)
	// Keep 64 records retained while appending two ring's worth, so every
	// slot, record 10's included, is overwritten at least once.
	for i := int64(64); i < int64(64+2*capacity); i++ {
		c.Trim(ts(i - 63))
		_ = c.Append("n1", ts(i), []float64{-1, -1})
	}
	if len(s.times) != capacity {
		t.Fatalf("ring grew from %d to %d; the test needs slots reused", capacity, len(s.times))
	}
	for _, r := range []Record{kept, ranged[0]} {
		if r.At != ts(10) || r.Value(0) != 10 || r.Value(1) != 7 {
			t.Fatalf("record changed after its slot was reused: %+v", r)
		}
	}
}

func TestWrappedContainerPersistsLikeFresh(t *testing.T) {
	st := NewStore()
	c, _ := st.CreateContainer(testSchema())
	for i := int64(0); i < 330; i++ {
		_ = c.Append("n1", ts(i), []float64{float64(i), 0.5 * float64(i)})
		if i%3 == 0 {
			_ = c.Append("n2", ts(i), []float64{float64(2 * i), 1})
		}
		c.Trim(ts(i - 40))
	}
	if s := c.bySource["n1"]; s.head == 0 || s.slot(s.n-1) >= s.head {
		t.Fatalf("n1 ring is not wrapped (head %d, n %d, cap %d)", s.head, s.n, len(s.times))
	}
	freshStore := NewStore()
	fresh, _ := freshStore.CreateContainer(testSchema())
	for _, r := range c.Range(math.MinInt64, math.MaxInt64) {
		if err := fresh.Append(r.Source, r.At, r.Values); err != nil {
			t.Fatal(err)
		}
	}

	var wrapped, clean bytes.Buffer
	if err := st.Save(&wrapped); err != nil {
		t.Fatal(err)
	}
	if err := freshStore.Save(&clean); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wrapped.Bytes(), clean.Bytes()) {
		t.Fatal("Save of a wrapped container differs from a fresh one with the same records")
	}
	loadedStore := NewStore()
	if err := loadedStore.Load(&wrapped); err != nil {
		t.Fatal(err)
	}
	loaded, _ := loadedStore.Container(testSchema().Name)

	var want bytes.Buffer
	if err := fresh.ExportCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		name string
		c    *Container
	}{{"wrapped", c}, {"loaded", loaded}} {
		var csv bytes.Buffer
		if err := got.c.ExportCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if csv.String() != want.String() {
			t.Errorf("%s ExportCSV differs from the fresh container's:\n%s\nwant:\n%s", got.name, csv.String(), want.String())
		}
	}
}
