package kws

import (
	"context"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/relation"
	"repro/internal/search/banks"
	"repro/internal/search/mtjnt"
	"repro/internal/search/paths"
)

// banksRawCap bounds the number of answer trees the BANKS baseline produces
// per query before ranking, matching the cap the facade has always used.
const banksRawCap = 100

// annotate turns a plain connection into a fully analysed answer: the
// close/loose analysis (with instance corroboration when enabled), the
// per-tuple keyword matches and the TF-IDF content score from the stream's
// scorer (one per query, so the keywords are tokenized once, not per tuple).
func (c Components) annotate(ctx context.Context, conn core.Connection, matched map[relation.TupleID][]string, scorer *index.Scorer, instanceChecks bool) (Answer, error) {
	var (
		an  core.Analysis
		err error
	)
	if instanceChecks {
		an, err = c.Analyzer.AnalyzeWithInstanceContext(ctx, conn, c.Graph)
	} else {
		an, err = c.Analyzer.Analyze(conn)
	}
	if err != nil {
		return Answer{}, err
	}
	copied := make(map[relation.TupleID][]string, len(matched))
	content := 0.0
	for _, t := range conn.Tuples {
		if kws := matched[t]; len(kws) > 0 {
			copied[t] = append([]string(nil), kws...)
		}
		content += scorer.Score(t)
	}
	return Answer{Connection: conn, Analysis: an, Matches: copied, ContentScore: content}, nil
}

// pathsSearcher adapts the connection-enumeration engine, which streams
// natively: answers are built and yielded while the enumeration runs.
type pathsSearcher struct {
	engine *paths.Engine
}

func newPathsSearcher(c Components) (Searcher, error) {
	e, err := paths.NewWithComponents(c.DB, c.Graph, c.Index, c.Analyzer, paths.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return pathsSearcher{engine: e}, nil
}

// Stream implements Searcher by delegating to the paths engine's native
// streaming enumeration.
func (s pathsSearcher) Stream(ctx context.Context, q Query, yield func(Answer) bool) error {
	opts := paths.Options{
		MaxEdges:              q.MaxJoins,
		RequireAllKeywords:    true,
		InstanceCorroboration: q.InstanceChecks == ToggleOn,
		Parallelism:           q.Parallelism,
	}
	return s.engine.Stream(ctx, q.Keywords, opts, yield)
}

// mtjntSearcher adapts the DISCOVER-style baseline: networks stream out of
// the minimal-total filter and are annotated one by one.
type mtjntSearcher struct {
	comp   Components
	engine *mtjnt.Engine
}

func newMTJNTSearcher(c Components) (Searcher, error) {
	e, err := mtjnt.NewWithComponents(c.DB, c.Graph, c.Index, mtjnt.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return mtjntSearcher{comp: c, engine: e}, nil
}

// Stream implements Searcher: networks stream out of the minimal-total
// filter and are annotated one by one.
func (s mtjntSearcher) Stream(ctx context.Context, q Query, yield func(Answer) bool) error {
	scorer := s.comp.Index.NewScorer(q.Keywords)
	var annErr error
	err := s.engine.Stream(ctx, q.Keywords, mtjnt.Options{MaxEdges: q.MaxJoins}, func(n mtjnt.Network) bool {
		var a Answer
		a, annErr = s.comp.annotate(ctx, n.Connection, n.Matches, scorer, q.InstanceChecks == ToggleOn)
		if annErr != nil {
			return false
		}
		return yield(a)
	})
	if annErr != nil {
		return annErr
	}
	return err
}

// banksSearcher adapts the backward-expanding baseline. BANKS must finish
// its keyword expansions before the first tree exists, so answers stream
// from the annotation phase onwards; only path-shaped trees become answers.
type banksSearcher struct {
	comp   Components
	engine *banks.Engine
}

func newBANKSSearcher(c Components) (Searcher, error) {
	e, err := banks.NewWithComponents(c.DB, c.Graph, c.Index, banks.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return banksSearcher{comp: c, engine: e}, nil
}

// Stream implements Searcher: trees are collected by the backward
// expansion, filtered to path shapes and annotated as they emerge.
func (s banksSearcher) Stream(ctx context.Context, q Query, yield func(Answer) bool) error {
	opts := banks.Options{MaxDepth: q.MaxJoins, MaxResults: banksRawCap, Parallelism: q.Parallelism}
	scorer := s.comp.Index.NewScorer(q.Keywords)
	var annErr error
	err := s.engine.Stream(ctx, q.Keywords, opts, func(t banks.Tree) bool {
		conn, ok := t.AsConnection()
		if !ok {
			if len(t.Nodes) != 1 {
				return true
			}
			c, err := core.NewConnection(t.Nodes[0], nil)
			if err != nil {
				return true
			}
			conn = c
		}
		var a Answer
		a, annErr = s.comp.annotate(ctx, conn, t.Matches, scorer, q.InstanceChecks == ToggleOn)
		if annErr != nil {
			return false
		}
		return yield(a)
	})
	if annErr != nil {
		return annErr
	}
	return err
}
