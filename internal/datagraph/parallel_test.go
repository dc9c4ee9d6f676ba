package datagraph

import (
	"reflect"
	"testing"

	"repro/internal/paperdb"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestBuildParallelDeterminism asserts that the parallel per-table build
// merges into exactly the structure the sequential path produces: same
// nodes, same counts, and byte-identical sorted adjacency per node.
func TestBuildParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		db      *relation.Database
		workers []int
	}{
		{name: "paper", db: paperdb.MustLoad(), workers: []int{4, 0}},
		{name: "workload", db: workload.MustGenerate(workload.ScaledConfig(2, 42)), workers: []int{8}},
	} {
		wantAdj, wantEdges := dump(t, buildParallel(tc.db, 1), tc.db)
		for _, workers := range tc.workers {
			gotAdj, gotEdges := dump(t, buildParallel(tc.db, workers), tc.db)
			if gotEdges != wantEdges {
				t.Fatalf("%s workers=%d: EdgeCount = %d, want %d", tc.name, workers, gotEdges, wantEdges)
			}
			for id, want := range wantAdj {
				if !reflect.DeepEqual(gotAdj[id], want) {
					t.Fatalf("%s workers=%d: adjacency of %s differs:\nparallel:   %v\nsequential: %v",
						tc.name, workers, id, gotAdj[id], want)
				}
			}
		}
	}
}
