package repro

// Before/after benchmarks for the dense-ID core refactor: interned search on
// the scale-4 workload, posting-list iteration, and incremental Apply. The
// numbers pinned in ARCHITECTURE.md ("Memory layout") come from these three
// benchmarks run with -benchmem before and after the interning change.

import (
	"context"
	"testing"

	"repro/internal/workload"
	"repro/kws"
)

// BenchmarkInternedSearch measures one uncached two-keyword search on the
// scale-4 synthetic workload through the public engine, allocations included.
func BenchmarkInternedSearch(b *testing.B) {
	db := kws.SyntheticCompany(4, 42)
	e, err := kws.New(db)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := kws.Query{Keywords: []string{"Smith", "XML"}, MaxJoins: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPostingIteration measures resolving every keyword of a query
// against the inverted index — the posting-list iteration that seeds every
// search — on the scale-4 workload.
func BenchmarkPostingIteration(b *testing.B) {
	db := workload.MustGenerate(workload.ScaledConfig(4, 42))
	idx := buildIndex(db, 0)
	keywords := []string{"Smith", "XML", "Johnson", "database"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kw := range keywords {
			if len(idx.Match(kw)) == 0 {
				b.Fatalf("keyword %q matches nothing", kw)
			}
		}
	}
}

// BenchmarkApplyInterned measures one single-tuple update through
// Engine.Apply on the scale-4 workload — the incremental graph and index
// maintenance path — allocations included.
func BenchmarkApplyInterned(b *testing.B) {
	db := kws.SyntheticCompany(4, 42)
	e, err := kws.New(db)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	names := [2]string{"Flipper", "Flopper"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := e.Apply(ctx, kws.Mutation{Ops: []kws.Op{
			kws.Update("EMPLOYEE", map[string]any{"SSN": "e1_1"}, map[string]any{"L_NAME": names[i%2]}),
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}
