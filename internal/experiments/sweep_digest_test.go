package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// sweepDigestFile pins the stdout of `wasched sweep run <name> -seed 1`
// for every registered sweep, one "name sha256" line each.
const sweepDigestFile = "testdata/sweep_digests.txt"

// cheapSweeps are the registered sweeps that finish in about a second
// together; `make sweep-digests` checks the rest through the CLI.
var cheapSweeps = []string{"fig6-smoke", "fig4", "fig3", "schedcheck"}

func storedSweepDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(sweepDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			stored[f[0]] = f[1]
		}
	}
	return stored
}

// TestSweepDigestsMatchStored renders the cheap sweeps' reports the way
// `wasched sweep run` prints them and holds them to the stored digests.
// A mismatch prints the new line: replace the stored one only when the
// output change is intended, and say why in the change log.
func TestSweepDigestsMatchStored(t *testing.T) {
	stored := storedSweepDigests(t)
	for _, name := range SweepNames() {
		if _, ok := stored[name]; !ok {
			t.Errorf("sweep %s has no stored digest", name)
		}
	}
	for _, name := range cheapSweeps {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			if err := Sweeps()[name].Run(&out, SweepConfig{Seed: 1}, 0); err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256([]byte(out.String()))
			if got := hex.EncodeToString(h[:]); got != stored[name] {
				t.Errorf("sweep output differs from the stored digest; new line:\n%s %s", name, got)
			}
		})
	}
}
