package workload

import (
	"reflect"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/index"
	"repro/internal/symtab"
)

// defaultConfig returns a small but non-trivial configuration.
func defaultConfig() Config {
	return Config{
		Departments:            5,
		ProjectsPerDepartment:  3,
		EmployeesPerDepartment: 8,
		AssignmentsPerEmployee: 2,
		DependentsPerEmployee:  1,
		Seed:                   1,
	}
}

func TestGenerateDefaultConfig(t *testing.T) {
	db, err := Generate(defaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	st := db.Stats()
	if st.Relations != 5 {
		t.Errorf("relations = %d", st.Relations)
	}
	if st.PerRelation["DEPARTMENT"] != 5 {
		t.Errorf("departments = %d, want 5", st.PerRelation["DEPARTMENT"])
	}
	for _, rel := range []string{"PROJECT", "EMPLOYEE", "WORKS_ON"} {
		if st.PerRelation[rel] == 0 {
			t.Errorf("%s is empty", rel)
		}
	}
	if errs := db.CheckIntegrity(); len(errs) != 0 {
		t.Errorf("integrity: %v", errs)
	}
	if err := db.Validate(); err != nil {
		t.Errorf("catalog: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := defaultConfig()
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa.PerRelation, sb.PerRelation) {
		t.Errorf("same seed produced different sizes: %v vs %v", sa.PerRelation, sb.PerRelation)
	}
	// Spot-check identical content.
	ea, _ := a.Table("EMPLOYEE")
	eb, _ := b.Table("EMPLOYEE")
	ta := ea.SortedTuples()
	tb := eb.SortedTuples()
	for i := range ta {
		if ta[i].String() != tb[i].String() {
			t.Fatalf("tuple %d differs: %s vs %s", i, ta[i], tb[i])
		}
	}
	// A different seed produces (almost surely) different content.
	cfg.Seed = 99
	c := MustGenerate(cfg)
	ec, _ := c.Table("EMPLOYEE")
	same := true
	tc := ec.SortedTuples()
	for i := range ta {
		if i >= len(tc) || ta[i].String() != tc[i].String() {
			same = false
			break
		}
	}
	if same && len(ta) == len(tc) {
		t.Error("different seeds produced identical employees")
	}
}

func TestScaledConfigGrowsLinearly(t *testing.T) {
	small := MustGenerate(ScaledConfig(1, 7))
	large := MustGenerate(ScaledConfig(4, 7))
	if small.TupleCount() >= large.TupleCount() {
		t.Errorf("scale 4 (%d tuples) should exceed scale 1 (%d tuples)", large.TupleCount(), small.TupleCount())
	}
	if got := ScaledConfig(0, 7).Departments; got != 2 {
		t.Errorf("scale 0 departments = %d, want clamp to 2", got)
	}
}

func TestGenerateRejectsInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{Departments: 0}); err == nil {
		t.Error("zero departments should fail")
	}
}

func TestGeneratedDatabaseIsSearchable(t *testing.T) {
	db := MustGenerate(defaultConfig())
	tuples := symtab.ForDatabase(db)
	idx := index.BuildParallelWith(db, tuples, 0)
	// Every topic and surname vocabulary entry used in descriptions is
	// findable; at least one topic must match something.
	matched := 0
	for _, topic := range Topics() {
		if len(idx.Match(topic)) > 0 {
			matched++
		}
	}
	if matched == 0 {
		t.Error("no topic keyword matches the generated database")
	}
	matched = 0
	for _, s := range Surnames() {
		if len(idx.Match(s)) > 0 {
			matched++
		}
	}
	if matched == 0 {
		t.Error("no surname keyword matches the generated database")
	}
	// The data graph is non-trivial and mostly connected.
	g := datagraph.BuildParallelWith(db, tuples, 0)
	if g.EdgeCount() == 0 {
		t.Error("generated graph has no edges")
	}
}

func TestQueriesGenerator(t *testing.T) {
	qs := Queries(20, 3)
	if len(qs) != 20 {
		t.Fatalf("queries = %d", len(qs))
	}
	for _, q := range qs {
		if len(q.Keywords) != 2 {
			t.Errorf("query = %v", q.Keywords)
		}
	}
	again := Queries(20, 3)
	if !reflect.DeepEqual(qs, again) {
		t.Error("query generation is not deterministic")
	}
	other := Queries(20, 4)
	if reflect.DeepEqual(qs, other) {
		t.Error("different seeds should give different queries")
	}
}

func TestVocabularyAccessorsReturnCopies(t *testing.T) {
	tps := Topics()
	tps[0] = "mutated"
	if Topics()[0] == "mutated" {
		t.Error("Topics exposes internal state")
	}
	sn := Surnames()
	sn[0] = "mutated"
	if Surnames()[0] == "mutated" {
		t.Error("Surnames exposes internal state")
	}
}
