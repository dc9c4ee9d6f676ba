package workload

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

// defaultLogsConfig returns a small but non-trivial configuration.
func defaultLogsConfig() LogsConfig {
	return LogsConfig{Services: 4, Hosts: 6, EventsPerService: 12, Incidents: 3, Seed: 1}
}

// dump renders a database deterministically for byte comparison.
func dump(t *testing.T, db *relation.Database) string {
	t.Helper()
	var sb strings.Builder
	if err := relation.DumpDatabase(&sb, db); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestGenerateLogsDeterministic(t *testing.T) {
	cfg := ScaledLogsConfig(2, 42)
	a, err := GenerateLogs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateLogs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := dump(t, a), dump(t, b); da != db {
		t.Fatal("same seed produced different logs databases")
	}
	other, err := GenerateLogs(ScaledLogsConfig(2, 43))
	if err != nil {
		t.Fatal(err)
	}
	if dump(t, a) == dump(t, other) {
		t.Fatal("different seeds produced identical logs databases")
	}
}

func TestGenerateLogsShape(t *testing.T) {
	cfg := defaultLogsConfig()
	db, err := GenerateLogs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SERVICE", "HOST", "LOG_EVENT", "INCIDENT", "EVENT_INCIDENT"} {
		tab, ok := db.Table(name)
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		if name != "EVENT_INCIDENT" && tab.Len() == 0 {
			t.Errorf("table %s is empty", name)
		}
	}
	events, _ := db.Table("LOG_EVENT")
	if got, want := events.Len(), cfg.Services*cfg.EventsPerService; got != want {
		t.Errorf("LOG_EVENT rows = %d, want %d", got, want)
	}
	// The junction must be recognized as such so EVENT_INCIDENT does not add
	// conceptual length — the property the workload exists to exercise.
	junction, _ := db.Table("EVENT_INCIDENT")
	if !junction.Schema().IsJunction() {
		t.Error("EVENT_INCIDENT schema not recognized as a junction")
	}
}

// TestGenerateLogsConcurrent pins that concurrent generator calls are
// independent: no shared mutable state, race-clean under -race -cpu=1,4.
func TestGenerateLogsConcurrent(t *testing.T) {
	cfg := defaultLogsConfig()
	want, err := GenerateLogs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDump := dump(t, want)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db, err := GenerateLogs(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			var sb strings.Builder
			if err := relation.DumpDatabase(&sb, db); err != nil {
				t.Error(err)
				return
			}
			if sb.String() != wantDump {
				t.Error("concurrent generation diverged from sequential")
			}
		}()
	}
	wg.Wait()
}
