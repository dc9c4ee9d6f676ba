// Package workload generates synthetic databases and keyword queries for the
// scale-out experiments. The generated databases follow exactly the schema
// and cardinalities of the paper's Figure 2 (departments, projects,
// employees, a WORKS_ON junction and dependents), so every phenomenon the
// paper discusses — close and loose connections, MTJNT answer loss, ER
// versus RDB lengths — appears at any scale. All generation is seeded and
// deterministic.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/paperdb"
	"repro/internal/relation"
)

// Config controls the size and shape of a generated company database.
type Config struct {
	// Departments is the number of departments (at least 1).
	Departments int
	// ProjectsPerDepartment is the average number of projects per department.
	ProjectsPerDepartment int
	// EmployeesPerDepartment is the average number of employees per department.
	EmployeesPerDepartment int
	// AssignmentsPerEmployee is the average number of WORKS_ON tuples per
	// employee.
	AssignmentsPerEmployee int
	// DependentsPerEmployee is the average number of dependents per employee.
	DependentsPerEmployee int
	// Seed drives all pseudo-random choices.
	Seed int64
}

// ScaledConfig returns a configuration whose total tuple count grows roughly
// linearly with the scale factor (scale 1 is about 60 tuples).
func ScaledConfig(scale int, seed int64) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{
		Departments:            2 * scale,
		ProjectsPerDepartment:  3,
		EmployeesPerDepartment: 10,
		AssignmentsPerEmployee: 2,
		DependentsPerEmployee:  1,
		Seed:                   seed,
	}
}

// Vocabularies used to fill text attributes. Keyword queries draw from the
// same lists, so matches exist at every scale.
var (
	topics = []string{
		"XML", "databases", "information retrieval", "programming", "history",
		"machine learning", "statistics", "networks", "compilers", "graphics",
		"security", "optimization", "visualization", "semantics", "keyword search",
	}
	surnames = []string{
		"Smith", "Miller", "Walker", "Johnson", "Virtanen", "Korhonen", "Nieminen",
		"Laine", "Heikkinen", "Koskinen", "Jarvinen", "Lehtonen", "Salminen",
	}
	firstNames = []string{
		"John", "Barbara", "Melina", "Alice", "Theodore", "Maria", "Juhani",
		"Aino", "Eero", "Helmi", "Olavi", "Sofia",
	}
	projectKinds = []string{"project", "task", "study", "initiative", "platform"}
)

// Generate builds a synthetic company database for the configuration.
func Generate(cfg Config) (*relation.Database, error) {
	if cfg.Departments < 1 {
		return nil, fmt.Errorf("workload: at least one department required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := relation.NewDatabase(fmt.Sprintf("company-scale-%d", cfg.Departments))
	for _, s := range paperdb.Schemas() {
		if _, err := db.CreateTable(s.Clone()); err != nil {
			return nil, err
		}
	}
	dept, _ := db.Table("DEPARTMENT")
	proj, _ := db.Table("PROJECT")
	emp, _ := db.Table("EMPLOYEE")
	works, _ := db.Table("WORKS_ON")
	depd, _ := db.Table("DEPENDENT")

	str, txt, num := relation.String, relation.Text, relation.Int

	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	atLeastOne := func(avg int) int {
		if avg <= 1 {
			return 1
		}
		return 1 + rng.Intn(2*avg-1) // mean ~avg, minimum 1
	}

	var departmentIDs []string
	var projectIDs []string
	projectsByDept := make(map[string][]string)
	var employeeIDs []string

	for d := 0; d < cfg.Departments; d++ {
		id := fmt.Sprintf("d%d", d+1)
		departmentIDs = append(departmentIDs, id)
		topicA, topicB := pick(topics), pick(topics)
		if _, err := dept.Insert(map[string]relation.Value{
			"ID":            str(id),
			"D_NAME":        str(fmt.Sprintf("dept-%d", d+1)),
			"D_DESCRIPTION": txt(fmt.Sprintf("The main topics of teaching are %s and %s.", topicA, topicB)),
		}); err != nil {
			return nil, err
		}
		nProjects := atLeastOne(cfg.ProjectsPerDepartment)
		for p := 0; p < nProjects; p++ {
			pid := fmt.Sprintf("p%d_%d", d+1, p+1)
			projectIDs = append(projectIDs, pid)
			projectsByDept[id] = append(projectsByDept[id], pid)
			topic := pick(topics)
			if _, err := proj.Insert(map[string]relation.Value{
				"ID":            str(pid),
				"D_ID":          str(id),
				"P_NAME":        str(fmt.Sprintf("%s %s", topic, pick(projectKinds))),
				"P_DESCRIPTION": txt(fmt.Sprintf("A %s about %s and %s.", pick(projectKinds), topic, pick(topics))),
			}); err != nil {
				return nil, err
			}
		}
	}

	dependentCounter := 0
	for d, deptID := range departmentIDs {
		nEmployees := atLeastOne(cfg.EmployeesPerDepartment)
		for e := 0; e < nEmployees; e++ {
			ssn := fmt.Sprintf("e%d_%d", d+1, e+1)
			employeeIDs = append(employeeIDs, ssn)
			if _, err := emp.Insert(map[string]relation.Value{
				"SSN":    str(ssn),
				"L_NAME": str(pick(surnames)),
				"S_NAME": str(pick(firstNames)),
				"D_ID":   str(deptID),
			}); err != nil {
				return nil, err
			}
			// Assign the employee to projects, preferring other
			// departments' projects half of the time so that loose and
			// close associations both occur.
			nAssign := cfg.AssignmentsPerEmployee
			if nAssign < 1 {
				nAssign = 1
			}
			assigned := make(map[string]bool)
			for a := 0; a < nAssign; a++ {
				var pid string
				if rng.Intn(2) == 0 && len(projectsByDept[deptID]) > 0 {
					own := projectsByDept[deptID]
					pid = own[rng.Intn(len(own))]
				} else {
					pid = projectIDs[rng.Intn(len(projectIDs))]
				}
				if assigned[pid] {
					continue
				}
				assigned[pid] = true
				if _, err := works.Insert(map[string]relation.Value{
					"ESSN":  str(ssn),
					"P_ID":  str(pid),
					"HOURS": num(int64(10 + rng.Intn(60))),
				}); err != nil {
					return nil, err
				}
			}
			// Dependents.
			for k := 0; k < cfg.DependentsPerEmployee; k++ {
				if rng.Intn(2) == 0 {
					continue
				}
				dependentCounter++
				if _, err := depd.Insert(map[string]relation.Value{
					"ID":             str(fmt.Sprintf("t%d", dependentCounter)),
					"ESSN":           str(ssn),
					"DEPENDENT_NAME": str(pick(firstNames)),
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	if errs := db.CheckIntegrity(); len(errs) > 0 {
		return nil, fmt.Errorf("workload: generated database violates integrity: %v", errs[0])
	}
	return db, nil
}

// MustGenerate is Generate but panics on error; for benchmarks and examples.
func MustGenerate(cfg Config) *relation.Database {
	db, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// Query is a generated keyword query.
type Query struct {
	Keywords []string
}

// Queries generates n two-keyword queries pairing a surname with a topic, so
// that every query has the shape of the paper's "Smith XML" example: one
// keyword matches employees, the other matches departments and projects.
func Queries(n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		surname := surnames[rng.Intn(len(surnames))]
		topic := topics[rng.Intn(len(topics))]
		out = append(out, Query{Keywords: []string{surname, topic}})
	}
	return out
}

// Topics returns the topic vocabulary used in generated descriptions.
func Topics() []string { return append([]string(nil), topics...) }

// Surnames returns the surname vocabulary used for employees.
func Surnames() []string { return append([]string(nil), surnames...) }
