package workload

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

// defaultDocsConfig returns a small but non-trivial configuration.
func defaultDocsConfig() DocsConfig {
	return DocsConfig{Collections: 3, DocumentsPerCollection: 8, FieldsPerDocument: 5, Tags: 6, Seed: 1}
}

func TestGenerateDocsDeterministic(t *testing.T) {
	cfg := ScaledDocsConfig(2, 42)
	a, err := GenerateDocs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDocs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if da, db := dump(t, a), dump(t, b); da != db {
		t.Fatal("same seed produced different docs databases")
	}
	other, err := GenerateDocs(ScaledDocsConfig(2, 43))
	if err != nil {
		t.Fatal(err)
	}
	if dump(t, a) == dump(t, other) {
		t.Fatal("different seeds produced identical docs databases")
	}
}

func TestGenerateDocsShape(t *testing.T) {
	cfg := defaultDocsConfig()
	db, err := GenerateDocs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"COLLECTION", "DOCUMENT", "DOC_FIELD", "TAG", "DOC_TAG"} {
		if _, ok := db.Table(name); !ok {
			t.Fatalf("missing table %s", name)
		}
	}
	docs, _ := db.Table("DOCUMENT")
	if got, want := docs.Len(), cfg.Collections*cfg.DocumentsPerCollection; got != want {
		t.Errorf("DOCUMENT rows = %d, want %d", got, want)
	}
	// Flattened nested-field labels must look like dotted JSON paths.
	fields, _ := db.Table("DOC_FIELD")
	if fields.Len() == 0 {
		t.Fatal("DOC_FIELD is empty")
	}
	sawNested := false
	for _, tup := range fields.Tuples() {
		path := tup.Value("PATH").String()
		if !strings.Contains(path, ".") {
			t.Fatalf("PATH %q is not a dotted nested-field label", path)
		}
		if strings.Count(path, ".") == 2 {
			sawNested = true
		}
	}
	if !sawNested {
		t.Error("no three-segment nested path generated at default config")
	}
	junction, _ := db.Table("DOC_TAG")
	if !junction.Schema().IsJunction() {
		t.Error("DOC_TAG schema not recognized as a junction")
	}
}

func TestDocQueriesDeterministic(t *testing.T) {
	a := DocQueries(50, 7)
	b := DocQueries(50, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different doc query streams")
	}
	c := DocQueries(50, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical doc query streams")
	}
}

// TestGenerateDocsConcurrent pins that concurrent generator calls are
// independent: no shared mutable state, race-clean under -race -cpu=1,4.
func TestGenerateDocsConcurrent(t *testing.T) {
	cfg := defaultDocsConfig()
	want, err := GenerateDocs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDump := dump(t, want)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db, err := GenerateDocs(cfg)
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
