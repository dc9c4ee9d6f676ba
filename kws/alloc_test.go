package kws_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/workload"
	"repro/kws"
)

// allocCeiling is an allocation budget per query: the figures measured when
// the ceiling was set, which a run may exceed by allocSlack. A change that
// cuts allocation lowers the figures in the same change, so the ceiling
// keeps biting.
type allocCeiling struct {
	bytes, allocs float64
}

// banksCeiling was measured on SyntheticCompany(24, 1) after BANKS moved
// root selection into the dense space (674 584 B and 5 869 allocs a query;
// the string-space loop before it took 5 107 907 B and 84 863 allocs).
var banksCeiling = allocCeiling{bytes: 674_584, allocs: 5_869}

// allocSlack is the headroom over the measured figures before a ceiling
// fails.
const allocSlack = 1.25

// coldPool is the benchmark's cold-search query pool on e: every surname x
// topic pair of the synthetic company vocabulary whose keywords both match.
func coldPool(e *kws.Engine) [][]string {
	var pool [][]string
	for _, surname := range workload.Surnames() {
		for _, topic := range workload.Topics() {
			if len(e.Match(surname)) > 0 && len(e.Match(topic)) > 0 {
				pool = append(pool, []string{surname, topic})
			}
		}
	}
	return pool
}

// allocsPerQuery runs every query of pool through e once to warm pools and
// caches, then once more between two runtime.ReadMemStats calls, and returns
// the heap bytes and allocations per query of the second pass. It reads no
// clock, so the figures depend on the code and not on the host's speed.
func allocsPerQuery(t *testing.T, e *kws.Engine, pool []kws.Query) (bytes, allocs float64) {
	t.Helper()
	ctx := context.Background()
	run := func() {
		for _, q := range pool {
			if _, err := e.Search(ctx, q); err != nil {
				t.Fatalf("%v: %v", q.Keywords, err)
			}
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	n := float64(len(pool))
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// checkCeiling fails t when a measured figure exceeds its ceiling's slack.
func checkCeiling(t *testing.T, bytes, allocs float64, c allocCeiling) {
	t.Helper()
	t.Logf("%.0f B and %.0f allocs a query (ceilings %.0f B, %.0f allocs)", bytes, allocs, c.bytes*allocSlack, c.allocs*allocSlack)
	if bytes > c.bytes*allocSlack {
		t.Errorf("%.0f B a query, above the ceiling of %.0f (%.0f measured when set, x%.2f)", bytes, c.bytes*allocSlack, c.bytes, allocSlack)
	}
	if allocs > c.allocs*allocSlack {
		t.Errorf("%.0f allocs a query, above the ceiling of %.0f (%.0f measured when set, x%.2f)", allocs, c.allocs*allocSlack, c.allocs, allocSlack)
	}
}

// TestBANKSAllocationCeiling runs the cold-search pool through BANKS on
// SyntheticCompany(24, 1) at the benchmark's max_joins 3 and top_k 10, and
// holds its bytes and allocations per query under a ceiling.
func TestBANKSAllocationCeiling(t *testing.T) {
	e, err := kws.New(kws.SyntheticCompany(24, 1))
	if err != nil {
		t.Fatal(err)
	}
	var pool []kws.Query
	for _, keywords := range coldPool(e) {
		pool = append(pool, kws.Query{Keywords: keywords, Engine: kws.EngineBANKS, MaxJoins: 3, TopK: 10})
	}
	bytes, allocs := allocsPerQuery(t, e, pool)
	checkCeiling(t, bytes, allocs, banksCeiling)
}
