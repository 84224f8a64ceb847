package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestJSONRecordsEffectiveConfig: the -json report records the seed and
// trial count the experiments ran with, not the flags as typed. -seed 0
// and -trials -3 run seed 1 with 5 trials, so their report must be the
// byte-identical twin of the one -seed 1 -trials 5 writes.
func TestJSONRecordsEffectiveConfig(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, args ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := run(append([]string{"-experiment", "E9", "-quick", "-json", path}, args...)); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	typed := report("typed.json", "-seed", "0", "-trials", "-3")
	var got jsonReport
	if err := json.Unmarshal(typed, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seed != 1 || got.Trials != 5 || !got.Quick || len(got.Tables) == 0 {
		t.Fatalf("report records seed %d, trials %d, quick %t, %d tables; want 1, 5, true and E9's tables",
			got.Seed, got.Trials, got.Quick, len(got.Tables))
	}
	if effective := report("effective.json", "-seed", "1", "-trials", "5"); !bytes.Equal(typed, effective) {
		t.Fatalf("-seed 0 -trials -3 wrote\n%s\nwant the -seed 1 -trials 5 report\n%s", typed, effective)
	}
}
