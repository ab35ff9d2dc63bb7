package farm

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalWrite appends raw lines to a sweep journal, bypassing the state
// layer — the tests here construct damaged on-disk states by hand.
func journalWrite(t *testing.T, dir, name string, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(journalPath(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := f.WriteString(l + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadStatusCorruptMidline: an unparsable line with valid lines after
// it is journal damage, not a torn tail, and must surface as an error
// instead of silently skewing the counts.
func TestReadStatusCorruptMidline(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s",
		`{"event":"begin","cells":2}`,
		`{"event":"done","key":"aaaa","cell":{"experiment":"t","config":"a","seed":1}`, // truncated JSON
		`{"event":"done","key":"bbbb"}`,
	)
	_, err := ReadStatus(dir, "s")
	if err == nil {
		t.Fatal("mid-stream corrupt journal line must error")
	}
	if !strings.Contains(err.Error(), "corrupt journal line 2") {
		t.Fatalf("error should identify the corrupt line, got: %v", err)
	}
}

// TestReadStatusTornTail: exactly one unparsable line at the very end is
// the torn tail of a killed process and is tolerated.
func TestReadStatusTornTail(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s",
		`{"event":"begin","cells":3}`,
		`{"event":"done","key":"aaaa"}`,
		`{"event":"done","key":"bb`, // torn mid-write by a kill
	)
	st, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if st.Cells != 3 || st.Done != 1 || st.Remaining != 2 {
		t.Fatalf("status miscounted around torn tail: %+v", st)
	}
}

// TestReadStatusMissingJournal: asking about a sweep that never ran is an
// error naming the sweep, not an empty status.
func TestReadStatusMissingJournal(t *testing.T) {
	if _, err := ReadStatus(t.TempDir(), "nope"); err == nil {
		t.Fatal("missing journal must error")
	}
}

// TestLookupTruncatedCacheEntry: a truncated cache file must fail the
// sweep with an error pointing at `wasched sweep clean`, not be silently
// recomputed — silent recomputation would mask state-dir damage.
func TestLookupTruncatedCacheEntry(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(3)
	if _, err := Run(context.Background(), "trunc", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cache", cells[1].Key()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), "trunc", cells, simExec, Options{Workers: 1, StateDir: dir})
	if err == nil {
		t.Fatal("truncated cache entry must fail the resume")
	}
	if !strings.Contains(err.Error(), "sweep clean") {
		t.Fatalf("error should point at sweep clean, got: %v", err)
	}
}

// TestLookupWrongCellEntry: a cache file whose payload describes a
// different cell (hash collision or hand-edit) must be refused.
func TestLookupWrongCellEntry(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(2)
	if _, err := Run(context.Background(), "swap", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	// Overwrite cell 0's entry with cell 1's outcome.
	b, err := os.ReadFile(filepath.Join(dir, "cache", cells[1].Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cache", cells[0].Key()+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "swap")
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, _, err := st.lookup(cells[0]); err == nil || !strings.Contains(err.Error(), "holds cell") {
		t.Fatalf("mismatched cell entry must be refused, got: %v", err)
	}
}

// TestLookupNonDoneEntry: only successful outcomes may be served from the
// cache; a failed outcome on disk is corruption (record never writes one).
func TestLookupNonDoneEntry(t *testing.T) {
	dir := t.TempDir()
	c := Cell{Experiment: "t", Config: "a", Seed: 1}
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(Outcome{Cell: c, Status: StatusFailed, Err: "boom"})
	if err := os.WriteFile(filepath.Join(dir, "cache", c.Key()+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "bad")
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, _, err := st.lookup(c); err == nil || !strings.Contains(err.Error(), "status") {
		t.Fatalf("non-done cache entry must be refused, got: %v", err)
	}
}

// TestUnwritableStateDir: a state dir that cannot be created (here: the
// path is a regular file, so MkdirAll fails regardless of privileges)
// surfaces as a Run error instead of a silent in-memory sweep.
func TestUnwritableStateDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), "bad", sweepCells(1), simExec, Options{StateDir: file})
	if err == nil || !strings.Contains(err.Error(), "state dir") {
		t.Fatalf("unwritable state dir must fail Run, got: %v", err)
	}
}

// TestRepairJournalTail: opening a journal whose previous writer was
// killed mid-append truncates the torn fragment, so later appends extend a
// clean line instead of gluing onto garbage (which would read back as
// mid-journal corruption).
func TestRepairJournalTail(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s", `{"event":"begin","cells":2}`, `{"event":"done","key":"aaaa"}`)
	// Simulate a kill mid-append: a partial record with no newline.
	f, err := os.OpenFile(journalPath(dir, "s"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"done","key":"bb`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "s")
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if st.repairedTail == 0 {
		t.Fatal("torn tail was not repaired")
	}
	// The next append must land on its own line: the journal stays fully
	// parsable with the fragment gone and the new record present.
	if err := st.append(journalRecord{Event: "done", Key: "cccc"}); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	status, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatalf("journal unreadable after repair+append: %v", err)
	}
	if status.Done != 2 {
		t.Fatalf("want 2 done cells (aaaa + cccc, fragment dropped), got %+v", status)
	}
}

// TestRepairJournalTailCompleteLine: a final record that was fully written
// but lost its newline to the kill is a synced admission — repair must
// re-terminate it, not drop it.
func TestRepairJournalTailCompleteLine(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s", `{"event":"begin","cells":2}`)
	f, err := os.OpenFile(journalPath(dir, "s"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"done","key":"aaaa"}`); err != nil { // no newline
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if st.repairedTail != 0 {
		t.Fatalf("complete line must not be truncated, dropped %d bytes", st.repairedTail)
	}
	if err := st.append(journalRecord{Event: "done", Key: "bbbb"}); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	status, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if status.Done != 2 {
		t.Fatalf("want both done cells preserved, got %+v", status)
	}
}

// TestRepairJournalMidstreamDamage: corruption that is not a torn tail
// (a bad line with valid lines after it) must refuse to open — silently
// truncating it would forge history.
func TestRepairJournalMidstreamDamage(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s",
		`{"event":"begin","cells":2}`,
		`{"event":"done","key":"aa`, // corrupt, but not the tail
		`{"event":"done","key":"bbbb"}`,
	)
	if _, err := openState(dir, "s"); err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("mid-stream damage must refuse to open, got: %v", err)
	}
}

// TestReadStatusExpiries: lease-expired events accumulate across runs in
// the status view — the journal's record of worker churn.
func TestReadStatusExpiries(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s",
		`{"event":"begin","cells":1}`,
		`{"event":"lease","key":"aaaa","worker":"w1"}`,
		`{"event":"lease-expired","key":"aaaa","worker":"w1"}`,
		`{"event":"lease","key":"aaaa","worker":"w2"}`,
		`{"event":"lease-expired","key":"aaaa","worker":"w2"}`,
		`{"event":"done","key":"aaaa"}`,
	)
	st, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expiries != 2 {
		t.Fatalf("want 2 cumulative expiries, got %+v", st)
	}
	if st.Done != 1 || st.Leased != 0 {
		t.Fatalf("latest-state tallies skewed by expiry counting: %+v", st)
	}
}

// TestRecordJournalsBeforeCaching: an admission whose journal append
// fails — here because the journal was closed under it, as when a
// coordinator is stopped with an upload in flight — must leave no cache
// entry. A cached cell without a done record would be served from the
// cache on resume and never journaled, so ReadStatus would count it as
// remaining forever.
func TestRecordJournalsBeforeCaching(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(1, 0); err != nil {
		t.Fatal(err)
	}
	cell := Cell{Experiment: "t", Config: "a", Seed: 1}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	out := &Outcome{Cell: cell, Status: StatusDone, Payload: json.RawMessage(`1`)}
	if err := st.Record(out); err == nil {
		t.Fatal("Record on a closed journal must fail")
	}
	if _, ok, err := st.Lookup(cell); ok || err != nil {
		t.Fatalf("unjournaled admission left a cache entry (hit %v, err %v)", ok, err)
	}

	st2, err := OpenStore(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := st2.Record(out); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st2.Lookup(cell); !ok || err != nil {
		t.Fatalf("journaled admission must be cached (hit %v, err %v)", ok, err)
	}
	status, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if status.Done != 1 || status.Remaining != 0 {
		t.Fatalf("status: %+v", status)
	}
}

// TestRecordCacheFailureAfterJournal: when the cache write fails after the
// done line is journaled, Record reports the error and the cell stays a
// cache miss; a retried Record then succeeds and caches the payload.
func TestRecordCacheFailureAfterJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := st.Begin(1, 0); err != nil {
		t.Fatal(err)
	}
	cell := Cell{Experiment: "t", Config: "a", Seed: 1}
	// A non-empty directory where the cache entry belongs makes the
	// rename onto it fail.
	entry := filepath.Join(dir, "cache", cell.Key()+".json")
	if err := os.MkdirAll(filepath.Join(entry, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	out := &Outcome{Cell: cell, Status: StatusDone, Payload: json.RawMessage(`1`)}
	if err := st.Record(out); err == nil {
		t.Fatal("Record must fail when the cache rename fails")
	}
	status, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if status.Done != 1 {
		t.Fatalf("the done line precedes the cache write and must be durable: %+v", status)
	}

	if err := os.RemoveAll(entry); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Lookup(cell); ok || err != nil {
		t.Fatalf("failed cache write left an entry (hit %v, err %v)", ok, err)
	}
	if err := st.Record(out); err != nil {
		t.Fatalf("retried Record: %v", err)
	}
	if _, ok, err := st.Lookup(cell); !ok || err != nil {
		t.Fatalf("retried admission must be cached (hit %v, err %v)", ok, err)
	}
	status, err = ReadStatus(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if status.Done != 1 || status.Remaining != 0 {
		t.Fatalf("status after retry: %+v", status)
	}
}
