package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// state is the on-disk side of a sweep: a content-hashed result cache
// (cache/<key>.json, one file per finished cell, shared by every sweep
// under the same state dir) and an append-only checkpoint journal
// (<name>.journal.jsonl) recording sweep lifecycle events for status
// reporting and post-mortems.
type state struct {
	dir     string
	name    string
	mu      sync.Mutex
	journal *os.File
	// repairedTail is how many torn-tail bytes openState truncated from
	// the journal before appending — non-zero exactly when the previous
	// writer died mid-append.
	repairedTail int64
}

// journalRecord is one JSON line of the checkpoint journal.
type journalRecord struct {
	// Event is "begin" (sweep started: Cells total, Cached already on
	// disk), "done", "failed", or one of the grid lifecycle events
	// (EventLease, EventLeaseExpired, EventQuarantine) a distributed
	// coordinator appends.
	Event  string    `json:"event"`
	At     time.Time `json:"at"`
	Cells  int       `json:"cells,omitempty"`
	Cached int       `json:"cached,omitempty"`
	Key    string    `json:"key,omitempty"`
	Cell   *Cell     `json:"cell,omitempty"`
	Err    string    `json:"error,omitempty"`
	// Worker names the worker a grid event is attributed to.
	Worker string `json:"worker,omitempty"`
}

func openState(dir, name string) (*state, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		return nil, fmt.Errorf("farm: state dir: %w", err)
	}
	// Repair a torn tail before opening for append: a process killed
	// mid-append leaves a partial final line, and appending after it would
	// glue the next record onto the fragment — turning a tolerable torn
	// tail into mid-journal corruption that poisons every later read.
	repaired, err := repairJournalTail(journalPath(dir, name))
	if err != nil {
		return nil, err
	}
	j, err := os.OpenFile(journalPath(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	return &state{dir: dir, name: name, journal: j, repairedTail: repaired}, nil
}

func journalPath(dir, name string) string {
	return filepath.Join(dir, name+".journal.jsonl")
}

// JournalPath returns the checkpoint journal file for a sweep in a state
// dir — exported for the chaos harness, which tears journal tails the way
// a kill mid-append would.
func JournalPath(dir, name string) string { return journalPath(dir, name) }

// repairJournalTail truncates the torn tail a killed writer left behind:
// at most one trailing unparsable line (or unterminated fragment) is
// removed, and a final record that is valid JSON but lost its newline is
// re-terminated instead of dropped (it was fully written and synced).
// Corruption anywhere before the tail is journal damage, not a torn tail,
// and surfaces as an error — repairing it silently would forge history.
// It returns the number of bytes truncated.
func repairJournalTail(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("farm: journal: %w", err)
	}
	if len(b) == 0 {
		return 0, nil
	}
	parses := func(line []byte) bool {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			return true
		}
		var rec journalRecord
		return json.Unmarshal(line, &rec) == nil
	}
	validEnd := 0 // byte offset just past the last good, newline-terminated line
	badLine := 0  // 1-based line number of the first unparsable line, if any
	for off, line := 0, 0; off < len(b); {
		line++
		nl := bytes.IndexByte(b[off:], '\n')
		var content []byte
		end := len(b)
		if nl < 0 {
			content = b[off:] // unterminated fragment
		} else {
			content, end = b[off:off+nl], off+nl+1
		}
		switch {
		case !parses(content):
			if badLine != 0 {
				return 0, fmt.Errorf("farm: journal %s damaged: corrupt line %d is not a torn tail (line %d is also corrupt); run `wasched sweep clean -state-dir %s` and repair by hand", filepath.Base(path), badLine, line, filepath.Dir(path))
			}
			badLine = line
		case badLine != 0:
			return 0, fmt.Errorf("farm: journal %s damaged: corrupt line %d is not a torn tail (line %d follows it); run `wasched sweep clean -state-dir %s` and repair by hand", filepath.Base(path), badLine, line, filepath.Dir(path))
		case nl < 0:
			// Fully written record that lost only its newline to the kill:
			// complete it rather than dropping a synced admission.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return 0, fmt.Errorf("farm: journal: %w", err)
			}
			if _, err := f.WriteString("\n"); err != nil {
				//waschedlint:allow checkederr the write error is already being returned; close is best-effort cleanup
				f.Close()
				return 0, fmt.Errorf("farm: journal: %w", err)
			}
			if err := f.Close(); err != nil {
				return 0, fmt.Errorf("farm: journal: %w", err)
			}
			return 0, nil
		default:
			validEnd = end
		}
		off = end
	}
	dropped := int64(len(b) - validEnd)
	if dropped == 0 {
		return 0, nil
	}
	if err := os.Truncate(path, int64(validEnd)); err != nil {
		return 0, fmt.Errorf("farm: truncating torn journal tail: %w", err)
	}
	return dropped, nil
}

// close releases the journal. Every append already fsyncs, so a close
// error cannot lose journaled cells — but it is still surfaced, because a
// failing close is an early warning about the state volume.
func (s *state) close() error {
	if err := s.journal.Close(); err != nil {
		return fmt.Errorf("farm: closing journal: %w", err)
	}
	return nil
}

func (s *state) cachePath(key string) string {
	return filepath.Join(s.dir, "cache", key+".json")
}

// lookup serves a cell from the result cache. Only successful outcomes are
// cached, so a failed or interrupted cell is always re-executed on resume.
// A missing entry is a plain miss; an unreadable, unparsable or mismatched
// entry is an error — silently recomputing over a corrupt cache would mask
// state-dir damage (`wasched sweep clean` removes such entries).
func (s *state) lookup(c Cell) (*Outcome, bool, error) {
	path := s.cachePath(c.Key())
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("farm: cache entry for %s: %w", c, err)
	}
	var out Outcome
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, false, fmt.Errorf("farm: corrupt cache entry %s for cell %s (%v); run `wasched sweep clean -state-dir %s`", filepath.Base(path), c, err, s.dir)
	}
	if out.Status != StatusDone {
		return nil, false, fmt.Errorf("farm: cache entry %s has status %q, want %q; run `wasched sweep clean -state-dir %s`", filepath.Base(path), out.Status, StatusDone, s.dir)
	}
	// The cell on disk must actually be this cell — a hash collision or a
	// hand-edited file must not smuggle in another cell's result.
	if out.Cell != c {
		return nil, false, fmt.Errorf("farm: cache entry %s holds cell %s, want %s; run `wasched sweep clean -state-dir %s`", filepath.Base(path), out.Cell, c, s.dir)
	}
	out.Cached = true
	return &out, true, nil
}

// record journals a finished cell and, on success, persists its payload to
// the cache (atomically, via rename) so an interrupted sweep resumes
// without recomputing it.
//
// The journal line is written first, so a cache entry only ever exists
// for a cell whose done record is durable. In the other order, a writer
// stopped between the cache rename and the journal append (a killed
// coordinator, or a store closed under an in-flight admission) left a
// cached cell whose latest journal event was still its lease: the resumed
// sweep served it from the cache, never journaled it done, and
// ReadStatus reported it remaining forever. Stopped after the append but
// before the rename, the cell has a done record and no payload; resume
// misses the cache, recomputes the cell and journals it again.
func (s *state) record(out *Outcome) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var payload []byte
	if out.Status == StatusDone {
		b, err := json.Marshal(out)
		if err != nil {
			return fmt.Errorf("farm: cache %s: %w", out.Cell, err)
		}
		payload = b
	}
	cell := out.Cell
	//waschedlint:allow lockdiscipline append is the serialized journal write s.mu protects; callers hold mu by contract
	if err := s.append(journalRecord{
		Event: string(out.Status),
		Key:   out.Cell.Key(),
		Cell:  &cell,
		Err:   out.Err,
	}); err != nil {
		return err
	}
	if payload == nil {
		return nil
	}
	path := s.cachePath(out.Cell.Key())
	tmp := path + ".tmp"
	//waschedlint:allow lockdiscipline s.mu exists to serialize exactly this cache+journal write; workers block on record by design
	if err := os.WriteFile(tmp, payload, 0o644); err != nil {
		return fmt.Errorf("farm: cache %s: %w", out.Cell, err)
	}
	//waschedlint:allow lockdiscipline the rename completes the atomic cache write the mutex serializes
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("farm: cache %s: %w", out.Cell, err)
	}
	return nil
}

func (s *state) begin(cells, cached int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//waschedlint:allow lockdiscipline append is the serialized journal write s.mu protects; callers hold mu by contract
	return s.append(journalRecord{Event: "begin", Cells: cells, Cached: cached})
}

// append writes one journal line and syncs it, so a killed process loses
// at most the cell it was executing. Callers hold mu.
func (s *state) append(rec journalRecord) error {
	//waschedlint:allow nodeterminism journal timestamps are wall-clock bookkeeping and never feed simulation results
	rec.At = time.Now().UTC()
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	if _, err := s.journal.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("farm: journal: %w", err)
	}
	return s.journal.Sync()
}

// scanJournal streams a journal's records through fn. Exactly one
// unparsable line is tolerated and only as the very last line of the file
// — that is the torn tail of a killed process. An unparsable line with
// anything after it means the journal itself is damaged, which must
// surface instead of silently skewing the status counts.
func scanJournal(path string, fn func(journalRecord)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	//waschedlint:allow checkederr the journal is opened read-only here; close cannot lose data
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line, badLine := 0, 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if badLine != 0 {
			return fmt.Errorf("corrupt journal line %d (not a torn tail: line %d follows it)", badLine, line)
		}
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			badLine = line
			continue
		}
		fn(rec)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}

// SweepStatus summarises a sweep's journal — the `wasched sweep status`
// view of an on-disk state dir.
type SweepStatus struct {
	Name string
	// Cells is the total cell count of the most recent run (0 when the
	// journal holds no begin record).
	Cells int
	// Done and Failed count distinct cells by their latest journaled
	// outcome; Remaining = Cells - Done.
	Done, Failed, Remaining int
	// CacheHits is how many cells the latest run served from the result
	// cache at startup (the begin record's tally); Computed counts the
	// cells whose latest outcome was produced by a fresh execution during
	// the latest run, so Done = CacheHits + Computed for a consistent
	// journal.
	CacheHits, Computed int
	// Leased and Quarantined count the cells currently in those grid
	// states — non-zero only for state dirs written by a distributed
	// coordinator (wasched sweep serve).
	Leased, Quarantined int
	// Expiries counts every lease-expired event across all runs — the
	// journal's cumulative record of worker crashes, stalls and dropped
	// heartbeats (unlike Leased/Quarantined, which reflect only each
	// cell's latest state).
	Expiries int
	// Runs counts begin records (1 = never resumed).
	Runs int
	// LastEvent is the timestamp of the newest journal line.
	LastEvent time.Time
	// FailedCells lists the cells whose latest outcome failed, sorted;
	// QuarantinedCells likewise for cells pulled after repeated lease
	// expiries.
	FailedCells      []Cell
	QuarantinedCells []Cell
}

// ReadStatus parses a sweep's checkpoint journal from a state dir.
func ReadStatus(dir, name string) (*SweepStatus, error) {
	st := &SweepStatus{Name: name}
	type keyed struct {
		rec journalRecord
		idx int
	}
	latest := make(map[string]keyed)
	var keys []string // first-seen order, so tallies below stay deterministic
	idx, lastBegin := 0, -1
	err := scanJournal(journalPath(dir, name), func(rec journalRecord) {
		idx++
		if rec.At.After(st.LastEvent) {
			st.LastEvent = rec.At
		}
		switch rec.Event {
		case "begin":
			st.Runs++
			st.Cells = rec.Cells
			st.CacheHits = rec.Cached
			lastBegin = idx
		case string(StatusDone), string(StatusFailed), EventLease, EventLeaseExpired, EventQuarantine:
			if rec.Event == EventLeaseExpired {
				st.Expiries++
			}
			if rec.Key != "" {
				if _, seen := latest[rec.Key]; !seen {
					keys = append(keys, rec.Key)
				}
				latest[rec.Key] = keyed{rec: rec, idx: idx}
			}
		}
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("farm: no journal for sweep %q in %s: %w", name, dir, err)
	}
	if err != nil {
		return nil, fmt.Errorf("farm: journal for %q: %w", name, err)
	}
	for _, key := range keys {
		k := latest[key]
		switch k.rec.Event {
		case string(StatusDone):
			st.Done++
			if k.idx > lastBegin {
				st.Computed++
			}
		case string(StatusFailed):
			st.Failed++
			if k.rec.Cell != nil {
				st.FailedCells = append(st.FailedCells, *k.rec.Cell)
			}
		case EventLease:
			st.Leased++
		case EventQuarantine:
			st.Quarantined++
			if k.rec.Cell != nil {
				st.QuarantinedCells = append(st.QuarantinedCells, *k.rec.Cell)
			}
		}
	}
	sort.Slice(st.FailedCells, func(a, b int) bool {
		return st.FailedCells[a].String() < st.FailedCells[b].String()
	})
	sort.Slice(st.QuarantinedCells, func(a, b int) bool {
		return st.QuarantinedCells[a].String() < st.QuarantinedCells[b].String()
	})
	if st.Cells > 0 {
		st.Remaining = st.Cells - st.Done
		if st.Remaining < 0 {
			st.Remaining = 0
		}
	}
	return st, nil
}
