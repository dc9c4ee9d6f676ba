// Package experiments regenerates every figure and table of the paper and
// runs the extended, scaled-up experiments described in DESIGN.md. Each
// experiment returns a Report — a titled block of text lines — that
// cmd/repro prints and EXPERIMENTS.md records.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/er"
	"repro/internal/index"
	"repro/internal/paperdb"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/schemagraph"
	"repro/internal/search/mtjnt"
	"repro/internal/search/paths"
	"repro/internal/symtab"
)

// Report is the textual output of one experiment.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "table2").
	ID string
	// Title is a human-readable heading.
	Title string
	// Lines is the report body.
	Lines []string
}

// String renders the report with its heading.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

// Figure1 reproduces Figure 1: the ER schema of the running example, listed
// as entity types and relationships with their cardinality constraints.
func Figure1(context.Context) (Report, error) {
	schema := paperdb.ERSchema()
	r := Report{ID: "figure1", Title: "ER schema of the running example (Figure 1)"}
	r.Lines = append(r.Lines, "entity types:")
	for _, e := range schema.Entities() {
		r.Lines = append(r.Lines, fmt.Sprintf("  %s (key: %s)", e.Name, strings.Join(e.Key(), ", ")))
	}
	r.Lines = append(r.Lines, "relationships:")
	for _, line := range schema.DescribeRelationships() {
		r.Lines = append(r.Lines, "  "+line)
	}
	return r, nil
}

// Figure2 reproduces Figure 2: the relational schema and the database
// instance of the running example.
func Figure2(context.Context) (Report, error) {
	db, err := paperdb.Load()
	if err != nil {
		return Report{}, err
	}
	r := Report{ID: "figure2", Title: "Relational schema and instance (Figure 2)"}
	for _, s := range db.Schemas() {
		r.Lines = append(r.Lines, s.String())
	}
	r.Lines = append(r.Lines, "")
	var b strings.Builder
	if err := relation.DumpDatabase(&b, db); err != nil {
		return Report{}, err
	}
	r.Lines = append(r.Lines, strings.Split(strings.TrimRight(b.String(), "\n"), "\n")...)
	return r, nil
}

// Table1 reproduces Table 1: relationship paths between entity types with
// their cardinality constraints and the close/loose classification the paper
// derives from them. All conceptual paths of at most three relationships are
// listed; the six rows of the paper's table are among them.
func Table1(context.Context) (Report, error) {
	schema, mapping, err := paperdb.Conceptual()
	if err != nil {
		return Report{}, err
	}
	g, err := schemagraph.Conceptual(schema, mapping)
	if err != nil {
		return Report{}, err
	}
	r := Report{ID: "table1", Title: "Relationships and their cardinalities (Table 1)"}
	names := g.NodeNames()
	sort.Strings(names)
	for i := 0; i < len(names); i++ {
		for j := 0; j < len(names); j++ {
			if i == j {
				continue
			}
			for _, p := range g.EnumeratePaths(names[i], names[j], 3) {
				// List each undirected path once, from the
				// lexicographically smaller endpoint.
				if names[i] > names[j] {
					continue
				}
				cards := p.Cardinalities()
				class := er.ClassifyPath(cards)
				r.Lines = append(r.Lines, fmt.Sprintf("%-70s %-14s close=%v", p.String(), class, class.Close()))
			}
		}
	}
	sort.Strings(r.Lines)
	return r, nil
}

// connectionRow is one row of Tables 2/3.
type connectionRow struct {
	query     []string
	answer    paths.Answer
	formatted string
	withCards string
}

// paperEngines loads the paper's running example and builds its graph, index
// and analyzer once, with the connection-enumeration and MTJNT engines over
// them.
func paperEngines() (*paths.Engine, *mtjnt.Engine, error) {
	db, err := paperdb.Load()
	if err != nil {
		return nil, nil, err
	}
	g, idx, analyzer, err := buildComponents(db)
	if err != nil {
		return nil, nil, err
	}
	pathEngine, err := paths.NewWithComponents(db, g, idx, analyzer, paths.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	mtjntEngine, err := mtjnt.NewWithComponents(db, g, idx, mtjnt.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return pathEngine, mtjntEngine, nil
}

// paperAnswers runs a keyword query through the connection-enumeration
// engine with AND semantics and instance corroboration, within maxEdges joins
// — the one configuration every paper artifact reads its connections from.
func paperAnswers(ctx context.Context, engine *paths.Engine, keywords []string, maxEdges int) ([]paths.Answer, error) {
	opts := paths.Options{MaxEdges: maxEdges, RequireAllKeywords: true, InstanceCorroboration: true}
	return engine.SearchContext(ctx, keywords, opts)
}

// paperRows computes the connections of Tables 2 and 3: the "Smith XML"
// query within 3 joins plus the "Alice XML" query within 4 joins.
func paperRows(ctx context.Context) ([]connectionRow, error) {
	engine, _, err := paperEngines()
	if err != nil {
		return nil, err
	}
	var rows []connectionRow
	specs := []struct {
		query    []string
		maxEdges int
	}{
		{paperdb.QuerySmithXML, 3},
		{paperdb.QueryAliceXML, 4},
	}
	for _, spec := range specs {
		answers, err := paperAnswers(ctx, engine, spec.query, spec.maxEdges)
		if err != nil {
			return nil, err
		}
		for _, a := range answers {
			rows = append(rows, connectionRow{
				query:     spec.query,
				answer:    a,
				formatted: a.Connection.Format(paperdb.DisplayLabel, a.Matches),
				withCards: a.Analysis.FormatWithCardinalities(paperdb.DisplayLabel, a.Matches),
			})
		}
	}
	return rows, nil
}

// Table2 reproduces Table 2: the connections answering the running queries
// with their lengths in the RDB and at the ER level.
func Table2(ctx context.Context) (Report, error) {
	rows, err := paperRows(ctx)
	if err != nil {
		return Report{}, err
	}
	r := Report{ID: "table2", Title: "Connections and their lengths in the RDB and the ER (Table 2)"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-4s %-50s %-12s %-12s %s", "#", "connection", "len(RDB)", "len(ER)", "query"))
	for i, row := range rows {
		r.Lines = append(r.Lines, fmt.Sprintf("%-4d %-50s %-12d %-12d %s",
			i+1, row.formatted, row.answer.Analysis.RDBLength, row.answer.Analysis.ERLength, strings.Join(row.query, " ")))
	}
	return r, nil
}

// Table3 reproduces Table 3: the same connections annotated with the
// cardinality of every step, plus the close/loose classification that the
// paper derives in the surrounding text.
func Table3(ctx context.Context) (Report, error) {
	rows, err := paperRows(ctx)
	if err != nil {
		return Report{}, err
	}
	r := Report{ID: "table3", Title: "Connections with relationship cardinalities (Table 3)"}
	r.Lines = append(r.Lines, fmt.Sprintf("%-4s %-62s %-14s %-8s %s", "#", "connection with relationships", "class", "close", "instance-close"))
	for i, row := range rows {
		an := row.answer.Analysis
		r.Lines = append(r.Lines, fmt.Sprintf("%-4d %-62s %-14s %-8v %v",
			i+1, row.withCards, an.Class, an.Close, an.CorroboratedAtInstance))
	}
	return r, nil
}

// MTJNTLoss reproduces the paper's Section 3 observation: running the same
// query under the MTJNT principle loses the longer connections (3, 4, 6 and
// 7 of Table 2) even though they preserve close associations.
func MTJNTLoss(ctx context.Context) (Report, error) {
	pathEngine, mtjntEngine, err := paperEngines()
	if err != nil {
		return Report{}, err
	}
	all, err := paperAnswers(ctx, pathEngine, paperdb.QuerySmithXML, 3)
	if err != nil {
		return Report{}, err
	}
	minimal, err := mtjntEngine.SearchContext(ctx, paperdb.QuerySmithXML, mtjnt.Options{MaxEdges: 3})
	if err != nil {
		return Report{}, err
	}
	kept := make(map[string]bool, len(minimal))
	for _, n := range minimal {
		kept[n.Connection.Key()] = true
	}
	r := Report{ID: "mtjnt", Title: "Answers kept and lost under the MTJNT principle (query: Smith XML)"}
	lost := 0
	for _, a := range all {
		status := "kept"
		if !kept[a.Connection.Key()] {
			status = "LOST"
			lost++
		}
		r.Lines = append(r.Lines, fmt.Sprintf("%-50s %-6s close=%-5v instance-close=%v",
			a.Connection.Format(paperdb.DisplayLabel, a.Matches), status, a.Analysis.Close, a.Analysis.CorroboratedAtInstance))
	}
	r.Lines = append(r.Lines, fmt.Sprintf("total connections: %d, returned by MTJNT: %d, lost: %d", len(all), len(minimal), lost))
	return r, nil
}

// RankingComparison reproduces the ranking discussion of Section 3: the rank
// of every "Smith XML" connection under RDB length, ER length and the
// closeness-aware strategies.
func RankingComparison(ctx context.Context) (Report, error) {
	engine, _, err := paperEngines()
	if err != nil {
		return Report{}, err
	}
	answers, err := paperAnswers(ctx, engine, paperdb.QuerySmithXML, 3)
	if err != nil {
		return Report{}, err
	}
	items := make([]ranking.Item, len(answers))
	names := make([]string, len(answers))
	for i, a := range answers {
		items[i] = ranking.Item{Analysis: a.Analysis, Content: a.ContentScore}
		names[i] = a.Connection.Format(paperdb.DisplayLabel, a.Matches)
	}
	strategies := ranking.Strategies()
	r := Report{ID: "ranking", Title: "Rank of each connection under the compared strategies (query: Smith XML)"}
	header := fmt.Sprintf("%-50s", "connection")
	for _, s := range strategies {
		header += fmt.Sprintf(" %-28s", s.Name())
	}
	r.Lines = append(r.Lines, header)
	rankOf := make(map[string]map[string]int) // strategy -> connection key -> rank
	for _, s := range strategies {
		ranked := ranking.Rank(items, s)
		m := make(map[string]int, len(ranked))
		for _, rk := range ranked {
			m[rk.Item.Analysis.Connection.Key()] = rk.Rank
		}
		rankOf[s.Name()] = m
	}
	for i, a := range answers {
		line := fmt.Sprintf("%-50s", names[i])
		for _, s := range strategies {
			line += fmt.Sprintf(" %-28d", rankOf[s.Name()][a.Connection.Key()])
		}
		r.Lines = append(r.Lines, line)
	}
	return r, nil
}

// buildComponents constructs the shared graph, index and analyzer for a
// database once, so the engine comparisons measure search work only.
func buildComponents(db *relation.Database) (*datagraph.Graph, *index.Index, *core.Analyzer, error) {
	analyzer, err := core.Derive(db)
	if err != nil {
		return nil, nil, nil, err
	}
	// One interned tuple-ID space shared by both substrates.
	tuples := symtab.ForDatabase(db)
	return datagraph.BuildParallelWith(db, tuples, 1), index.BuildParallelWith(db, tuples, 1), analyzer, nil
}
