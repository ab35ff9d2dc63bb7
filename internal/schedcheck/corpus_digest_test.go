package schedcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"wasched/internal/sched"
)

// corpusDigestFile pins the schedule of every replay the differential
// corpus makes, one "key sha256" line each.
const corpusDigestFile = "testdata/corpus_digests.txt"

// corpusDigests replays every corpus workload the way the corpus sweep
// does (RunDifferential: every policy label, BB and token variants
// included) and the way TestReplayMatchesReferenceOnCorpus does (the
// Slurm default test window), keyed "<kind>/seed<n>/<label>/<window>".
func corpusDigests() map[string]string {
	const nodes = 16
	const limit = 20 * 1024 * 1024 * 1024
	windows := []struct {
		name string
		opt  sched.Options
	}{
		{"all", sched.Options{}},
		{fmt.Sprintf("test%d", sched.SlurmDefaultTestLimit), sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit}},
	}
	out := make(map[string]string)
	for _, kind := range Kinds() {
		for _, seed := range CorpusSeeds() {
			w := Generate(kind, seed, nodes, limit)
			for _, win := range windows {
				diff := DiffConfig{Nodes: nodes, Limit: limit, Options: win.opt}
				if kind.HasBB() {
					diff.BBCapacity = CorpusBBCapacity
					diff.BBStageRate = CorpusBBStageRate
					diff.BBDrainRate = CorpusBBDrainRate
				}
				if kind.HasTBF() {
					diff.TBFCapacity = CorpusTBFCapacity
					diff.TBFServers = CorpusTBFServers
				}
				for label, r := range RunDifferential(w, diff).Results {
					sum := sha256.Sum256([]byte(scheduleDigest(r)))
					out[fmt.Sprintf("%s/seed%d/%s/%s", kind, seed, label, win.name)] = hex.EncodeToString(sum[:])
				}
			}
		}
	}
	return out
}

// TestCorpusDigestsMatchStored holds the corpus schedules to the digests
// stored in testdata. TestReplayMatchesReferenceOnCorpus compares Replay
// with its straightforward oracle loop, so a change to code both paths
// share (the measured-throughput guard, the earliest-start
// fixpoint, Reserve) passes it unnoticed; this test does not. A mismatch
// prints the new line: replace the stored one only when the schedule
// change is intended, and say why in the change log.
func TestCorpusDigestsMatchStored(t *testing.T) {
	data, err := os.ReadFile(corpusDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			stored[f[0]] = f[1]
		}
	}
	got := corpusDigests()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := stored[k]; !ok || got[k] != want {
			t.Errorf("schedule differs from the stored digest; new line:\n%s %s", k, got[k])
		}
		delete(stored, k)
	}
	for k := range stored {
		t.Errorf("stored digest %s was not replayed", k)
	}
}
