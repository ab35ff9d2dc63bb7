package benchtraj

import (
	"path/filepath"
	"slices"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	type entry struct {
		Label  string `json:"label"`
		Allocs int64  `json:"allocs_per_op"`
	}
	history, err := Read[entry](path)
	if err != nil || history != nil {
		t.Fatalf("missing file: %v, %v", history, err)
	}
	want := []entry{{"a", 10}, {"b", 9}}
	for _, e := range want {
		history = append(history, e)
		if err := Write(path, history); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Read[entry](path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}
