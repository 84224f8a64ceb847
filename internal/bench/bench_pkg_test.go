package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E18", "E20"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 2, Quick: true}
	for id, run := range Registry() {
		id, run := id, run
		t.Run(id, func(t *testing.T) {
			tables := run(cfg)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				var buf bytes.Buffer
				tb.Render(&buf)
				if !strings.Contains(buf.String(), tb.ID) {
					t.Error("render missing table id")
				}
			}
		})
	}
}

func TestE7ReportsZeroDecreases(t *testing.T) {
	tables := E7FilterSoundness(Config{Seed: 2, Trials: 2, Quick: true})
	row := tables[0].Rows[0]
	if row[2] != "0" {
		t.Errorf("E7 found %s weight decreases, want 0", row[2])
	}
	if row[3] != "0" {
		t.Errorf("E7 found %s validation failures, want 0", row[3])
	}
}

func TestE9AllGood(t *testing.T) {
	tables := E9TauPairs(Config{Quick: true})
	for _, row := range tables[0].Rows {
		if row[3] != "yes" {
			t.Errorf("E9 row %v reports bad pairs", row)
		}
	}
}

func TestRunAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	RunAll(Config{Seed: 1, Trials: 1, Quick: true}, &buf)
	out := buf.String()
	for _, id := range IDs() {
		if !strings.Contains(out, "== "+id) {
			t.Errorf("output missing experiment %s", id)
		}
	}
}

// TestE12bCountersComplete is the reflection audit of the augbench counter
// table: every core.Stats field must have its own E12b column, so a future
// counter cannot be silently missing from the harness ledger.
func TestE12bCountersComplete(t *testing.T) {
	tables := E12Convergence(Config{Seed: 1, Trials: 1, Quick: true})
	var counters *Table
	for i := range tables {
		if tables[i].ID == "E12b" {
			counters = &tables[i]
		}
	}
	if counters == nil {
		t.Fatal("E12b table missing")
	}
	have := map[string]bool{}
	for _, h := range counters.Header {
		have[h] = true
	}
	for _, f := range (core.Stats{}).Fields() {
		if !have[f.Name] {
			t.Errorf("E12b lacks a column for core.Stats counter %q", f.Name)
		}
	}
	if len(counters.Rows) == 0 || len(counters.Rows[0]) != len(counters.Header) {
		t.Fatal("E12b rows do not match its header")
	}
}

// TestE18EditStreamHonest keeps the E18 table honest: rows come in
// persistent/rebuild pairs that agree on the final weight (the harness
// surfaces a divergence as an extra DIVERGED row, which must never
// appear), and the persistent side of every regime absorbed at least one
// edit through a surviving cross-round chain (MutationDeltaBuilds > 0)
// rather than resetting per update. It runs the full-size table: on the
// quick table's 60-vertex band too few pairs fill every Y gap for a chain
// to cross a batch in every regime.
func TestE18EditStreamHonest(t *testing.T) {
	tables := E18EditStream(Config{Seed: 1, Trials: 1})
	rows := tables[0].Rows
	if len(rows)%2 != 0 || len(rows) == 0 {
		t.Fatalf("E18 rows not in persistent/rebuild pairs: %d rows", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		pers, reb := rows[i], rows[i+1]
		if pers[1] == "DIVERGED" || reb[1] == "DIVERGED" {
			t.Fatalf("%s: configurations diverged", pers[0])
		}
		if pers[1] != "persistent" || reb[1] != "rebuild" {
			t.Fatalf("row order drifted: %q then %q", pers[1], reb[1])
		}
		if pers[7] != reb[7] {
			t.Errorf("%s: final weight diverged: %s vs %s", pers[0], pers[7], reb[7])
		}
		if pers[5] == "0" {
			t.Errorf("%s: persistent run absorbed no edit through a cross-round chain", pers[0])
		}
	}
}
