package main

import (
	"context"
	"errors"
	"testing"
)

func TestRunSingleArtifacts(t *testing.T) {
	for _, artifact := range []string{"figure1", "figure2", "table1", "table2", "table3", "mtjnt", "ranking", "ablation", "search", "mutate"} {
		if err := run(context.Background(), artifact, "1", 1, 2, 3, 42); err != nil {
			t.Errorf("run(%s): %v", artifact, err)
		}
	}
}

func TestRunAllAndScaledArtifacts(t *testing.T) {
	if err := run(context.Background(), "all", "1", 1, 2, 3, 42); err != nil {
		t.Errorf("run(all): %v", err)
	}
	if err := run(context.Background(), "scale", "1,2", 1, 3, 3, 42); err != nil {
		t.Errorf("run(scale): %v", err)
	}
	if err := run(context.Background(), "engines", "1", 1, 3, 3, 42); err != nil {
		t.Errorf("run(engines): %v", err)
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if err := run(context.Background(), "bogus", "1", 1, 1, 3, 42); err == nil {
		t.Error("unknown artifact should fail")
	}
}

// TestRunCancelled checks the context reaches the engines: a cancelled run
// reports the cancellation instead of a table of skipped queries.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, artifact := range []string{"table2", "all", "scale", "engines"} {
		if err := run(ctx, artifact, "1", 1, 2, 3, 42); !errors.Is(err, context.Canceled) {
			t.Errorf("run(%s) under a cancelled context = %v, want context.Canceled", artifact, err)
		}
	}
}

func TestParseScales(t *testing.T) {
	got, err := parseScales("1, 2,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Errorf("parseScales = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "x", "-1"} {
		if _, err := parseScales(bad); err == nil {
			t.Errorf("parseScales(%q) should fail", bad)
		}
	}
}
