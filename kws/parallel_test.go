package kws_test

import (
	"context"
	"reflect"
	"testing"

	"repro/kws"
)

// TestParallelQueryMatchesSequential asserts that per-query parallelism is
// invisible in the ranked output across all three engines.
func TestParallelQueryMatchesSequential(t *testing.T) {
	e, err := kws.New(kws.PaperExample())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for _, kind := range []kws.EngineKind{kws.EnginePaths, kws.EngineMTJNT, kws.EngineBANKS} {
		base := kws.Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3, Engine: kind}
		seqQ := base
		seqQ.Parallelism = 1
		seq, err := e.Search(ctx, seqQ)
		if err != nil {
			t.Fatalf("%s sequential: %v", kind, err)
		}
		for _, workers := range []int{2, 8} {
			parQ := base
			parQ.Parallelism = workers
			par, err := e.Search(ctx, parQ)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Errorf("%s workers=%d: results differ from sequential", kind, workers)
			}
		}
	}
}
