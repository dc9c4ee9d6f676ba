package kws

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestLoadCSVIntoTable(t *testing.T) {
	db := NewDatabase("csv")
	if err := CompanySchema(db); err != nil {
		t.Fatal(err)
	}
	n, err := db.LoadCSV("DEPARTMENT", strings.NewReader("ID,D_NAME,D_DESCRIPTION\nd1,cs,databases and XML\nd2,inf,retrieval\n"))
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if n != 2 || db.TupleCount() != 2 {
		t.Errorf("loaded %d rows, tuple count %d", n, db.TupleCount())
	}
	if _, err := db.LoadCSV("NOPE", strings.NewReader("A\n1\n")); err == nil {
		t.Error("loading into an unknown table should fail")
	}
}

func TestLoadCSVDirRoundTripWithDbgenFormat(t *testing.T) {
	// Write CSV files in the format cmd/dbgen produces (via the paper
	// database) and load them back through the public API.
	dir := t.TempDir()
	source := PaperExample()
	for _, name := range source.Tables() {
		tab, _ := source.internalDB().Table(name)
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := relation.WriteCSV(f, tab); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	db := NewDatabase("company")
	if err := CompanySchema(db); err != nil {
		t.Fatal(err)
	}
	n, err := db.LoadCSVDir(dir)
	if err != nil {
		t.Fatalf("LoadCSVDir: %v", err)
	}
	if n != 16 || db.TupleCount() != 16 {
		t.Errorf("loaded %d rows, tuple count %d, want 16", n, db.TupleCount())
	}
	if err := db.Validate(); err != nil {
		t.Errorf("loaded database invalid: %v", err)
	}
	// The loaded database answers the paper's query like the original.
	engine, err := New(db, WithDefaults(Config{Ranking: RankCloseFirst, MaxJoins: 3}))
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.Search(context.Background(), Query{Keywords: []string{"Smith", "XML"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Errorf("results over the CSV-loaded database = %d, want 7", len(results))
	}
}

func TestLoadCSVDirErrors(t *testing.T) {
	db := NewDatabase("x")
	if _, err := db.LoadCSVDir("/nonexistent-directory-for-kws-test"); err == nil {
		t.Error("missing directory should fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "UNKNOWN.csv"), []byte("A\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadCSVDir(dir); err == nil {
		t.Error("csv file without a matching table should fail")
	}
}
