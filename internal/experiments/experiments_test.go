package experiments

import (
	"context"
	"strings"
	"testing"
)

func joined(r Report) string { return strings.Join(r.Lines, "\n") }

func TestFigure1Report(t *testing.T) {
	r, err := Figure1(context.Background())
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	body := joined(r)
	for _, want := range []string{
		"DEPARTMENT", "EMPLOYEE", "PROJECT", "DEPENDENT",
		"DEPARTMENT 1:N EMPLOYEE (WORKS_FOR)",
		"DEPARTMENT 1:N PROJECT (CONTROLS)",
		"EMPLOYEE N:M PROJECT (WORKS_ON)",
		"EMPLOYEE 1:N DEPENDENT (DEPENDENTS_OF)",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Figure1 missing %q:\n%s", want, body)
		}
	}
	if r.ID != "figure1" || !strings.Contains(r.String(), "== figure1:") {
		t.Errorf("report header = %q", r.String())
	}
}

func TestFigure2Report(t *testing.T) {
	r, err := Figure2(context.Background())
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	body := joined(r)
	for _, want := range []string{
		"DEPARTMENT(ID VARCHAR", "PRIMARY KEY(ESSN, P_ID)",
		"programming, databases and XML", "Barbara", "Alice", "Theodore",
		"IR task",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Figure2 missing %q", want)
		}
	}
}

func TestTable1Report(t *testing.T) {
	r, err := Table1(context.Background())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	body := joined(r)
	// The six rows of the paper's Table 1 (up to reading direction) with
	// their classifications.
	for _, want := range []string{
		"DEPARTMENT 1:N EMPLOYEE ",
		"DEPARTMENT 1:N EMPLOYEE 1:N DEPENDENT",
		"DEPARTMENT 1:N PROJECT N:M EMPLOYEE",
		"DEPARTMENT 1:N EMPLOYEE N:M PROJECT",
		"DEPARTMENT 1:N PROJECT N:M EMPLOYEE 1:N DEPENDENT",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Table1 missing path %q:\n%s", want, body)
		}
	}
	// Classification columns: the functional chain is close, the
	// project-mediated paths are not.
	for _, line := range r.Lines {
		if strings.HasPrefix(line, "DEPARTMENT 1:N EMPLOYEE 1:N DEPENDENT") && !strings.Contains(line, "close=true") {
			t.Errorf("relationship 3 should be close: %q", line)
		}
		if strings.HasPrefix(line, "DEPARTMENT 1:N PROJECT N:M EMPLOYEE ") && strings.Contains(line, "close=true") {
			t.Errorf("relationship 4 should not be guaranteed close: %q", line)
		}
	}
}

func TestTable2Report(t *testing.T) {
	r, err := Table2(context.Background())
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	body := joined(r)
	// Representative rows with the paper's lengths.
	cases := map[string][2]string{
		"d1(XML) - e1(Smith)":                  {"1", "1"},
		"p1(XML) - w_f1 - e1(Smith)":           {"2", "1"},
		"d1(XML) - p1(XML) - w_f1 - e1(Smith)": {"3", "2"},
		"d2(XML) - p3 - w_f2 - e2(Smith)":      {"3", "2"},
	}
	for conn := range cases {
		if !strings.Contains(body, conn) && !strings.Contains(body, reverseDashes(conn)) {
			t.Errorf("Table2 missing connection %q:\n%s", conn, body)
		}
	}
	// The Alice connections appear as well (connections 8 and 9).
	if !strings.Contains(body, "t1(Alice)") {
		t.Error("Table2 missing the Alice connections")
	}
	// Verify the length columns of one specific row.
	for _, line := range r.Lines {
		if strings.Contains(line, "d1(XML) - p1(XML) - w_f1 - e1(Smith)") ||
			strings.Contains(line, reverseDashes("d1(XML) - p1(XML) - w_f1 - e1(Smith)")) {
			if !strings.Contains(line, "3") || !strings.Contains(line, "2") {
				t.Errorf("connection 4 lengths wrong: %q", line)
			}
		}
	}
}

func TestTable3Report(t *testing.T) {
	r, err := Table3(context.Background())
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	body := joined(r)
	for _, want := range []string{
		"1:N w_f1 N:1",
		"N:1 d1(XML) 1:N",
		"transitive-N:M",
		"functional",
		"immediate",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Table3 missing %q:\n%s", want, body)
		}
	}
}

func TestMTJNTLossReport(t *testing.T) {
	r, err := MTJNTLoss(context.Background())
	if err != nil {
		t.Fatalf("MTJNTLoss: %v", err)
	}
	lost := 0
	kept := 0
	for _, line := range r.Lines {
		if strings.Contains(line, "LOST") {
			lost++
		} else if strings.Contains(line, "kept") {
			kept++
		}
	}
	// The paper's connections 3, 4, 6, 7 are lost; 1, 2, 5 are kept.
	if lost != 4 {
		t.Errorf("lost connections = %d, want 4\n%s", lost, joined(r))
	}
	if kept != 3 {
		t.Errorf("kept connections = %d, want 3\n%s", kept, joined(r))
	}
	if !strings.Contains(joined(r), "lost: 4") {
		t.Errorf("summary line missing:\n%s", joined(r))
	}
}

func TestRankingComparisonReport(t *testing.T) {
	r, err := RankingComparison(context.Background())
	if err != nil {
		t.Fatalf("RankingComparison: %v", err)
	}
	body := joined(r)
	for _, want := range []string{"rdb-length", "er-length", "close-first", "looseness-penalty"} {
		if !strings.Contains(body, want) {
			t.Errorf("RankingComparison missing strategy %q", want)
		}
	}
	if len(r.Lines) != 1+7 {
		t.Errorf("expected 7 connection rows, got %d lines", len(r.Lines)-1)
	}
}

func TestAblationReport(t *testing.T) {
	results, r, err := Ablation(context.Background())
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("ablation rows = %d", len(results))
	}
	byStrategy := make(map[string]AblationResult)
	for _, res := range results {
		byStrategy[res.Strategy] = res
		if res.RankOfConnection2 < 0 || res.RankOfConnection4 < 0 || res.RankOfConnection6 < 0 || res.RankOfConnection7 < 0 {
			t.Errorf("strategy %s did not rank all connections: %+v", res.Strategy, res)
		}
	}
	rdb := byStrategy["rdb-length"]
	er := byStrategy["er-length"]
	closeFirst := byStrategy["close-first"]
	// Collapsing middle relations improves connection 2's rank (or keeps it
	// equally good) relative to counting raw joins.
	if er.RankOfConnection2 > rdb.RankOfConnection2 {
		t.Errorf("ER length should not worsen connection 2: rdb=%d er=%d", rdb.RankOfConnection2, er.RankOfConnection2)
	}
	// The closeness-aware ranking places the corroborated connection 7
	// above the uncorroborated connection 6.
	if closeFirst.RankOfConnection7 >= closeFirst.RankOfConnection6 {
		t.Errorf("close-first should rank connection 7 above 6: %+v", closeFirst)
	}
	if len(r.Lines) < 6 {
		t.Errorf("ablation report too short:\n%s", joined(r))
	}
}

func TestScaleExperimentSmall(t *testing.T) {
	opts := ScaleOptions{Scales: []int{1, 2}, Queries: 4, MaxEdges: 3, Seed: 7}
	results, r, err := ScaleExperiment(context.Background(), opts)
	if err != nil {
		t.Fatalf("ScaleExperiment: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Tuples >= results[1].Tuples {
		t.Errorf("tuples should grow with scale: %d vs %d", results[0].Tuples, results[1].Tuples)
	}
	ranQueries := 0
	for _, res := range results {
		ranQueries += res.QueriesRun
		if res.PathAnswers < res.MTJNTAnswers {
			t.Errorf("scale %d: the path engine must return at least as many answers as MTJNT (%d vs %d)",
				res.Scale, res.PathAnswers, res.MTJNTAnswers)
		}
		if res.LostAnswers > res.PathAnswers {
			t.Errorf("scale %d: lost answers exceed total answers", res.Scale)
		}
		if res.LostClose > res.LostAnswers {
			t.Errorf("scale %d: lost close answers exceed lost answers", res.Scale)
		}
		if rate := res.LossRate(); rate < 0 || rate > 1 {
			t.Errorf("loss rate out of range: %f", rate)
		}
	}
	if ranQueries == 0 {
		t.Error("no query ran at any scale")
	}
	if len(r.Lines) != 1+len(results) {
		t.Errorf("report rows = %d", len(r.Lines))
	}
	// Defaults kick in for an empty option set.
	if _, _, err := ScaleExperiment(context.Background(), ScaleOptions{}); err != nil {
		t.Errorf("default ScaleExperiment failed: %v", err)
	}
}

func TestEngineComparisonSmall(t *testing.T) {
	results, r, err := EngineComparison(context.Background(), 1, 4, 3, 11)
	if err != nil {
		t.Fatalf("EngineComparison: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("engines = %d", len(results))
	}
	names := map[string]bool{}
	for _, res := range results {
		names[res.Engine] = true
		if res.Queries+res.Skipped != 4 {
			t.Errorf("%s ran %d queries and skipped %d, want 4 total", res.Engine, res.Queries, res.Skipped)
		}
	}
	for _, want := range []string{"paths", "mtjnt", "banks"} {
		if !names[want] {
			t.Errorf("missing engine %s", want)
		}
	}
	if !strings.Contains(joined(r), "engine") {
		t.Error("report header missing")
	}
}

func TestAllReports(t *testing.T) {
	reports, err := All(context.Background())
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(reports) != 8 {
		t.Fatalf("reports = %d, want 8", len(reports))
	}
	ids := make(map[string]bool)
	for _, r := range reports {
		if len(r.Lines) == 0 {
			t.Errorf("report %s is empty", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"figure1", "figure2", "table1", "table2", "table3", "mtjnt", "ranking", "ablation"} {
		if !ids[want] {
			t.Errorf("missing report %s", want)
		}
	}
}
