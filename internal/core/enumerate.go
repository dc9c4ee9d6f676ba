package core

import (
	"context"
	"errors"
	"sort"

	"repro/internal/datagraph"
	"repro/internal/relation"
)

// errStopWalk is the internal sentinel unwinding a walk stopped by yield.
var errStopWalk = errors.New("core: walk stopped")

// EnumerateConnectionsContext returns every simple path between two tuples
// of the data graph with at most maxEdges joins, in deterministic order
// (shorter first, then by canonical key). It returns ctx.Err() (and the
// connections found so far) when the context is cancelled mid-walk. The
// search engines walk dense paths directly (WalkConnectionsIDs); this
// rendered form is the reference their answers are checked against.
func EnumerateConnectionsContext(ctx context.Context, g *datagraph.Graph, from, to relation.TupleID, maxEdges int) ([]Connection, error) {
	if g == nil {
		return nil, nil
	}
	f, okF := g.Tuples().Lookup(from)
	t, okT := g.Tuples().Lookup(to)
	if !okF || !okT {
		return nil, nil
	}
	var out []Connection
	err := WalkConnectionsIDs(ctx, g, f, t, maxEdges, func(p DensePath) bool {
		out = append(out, p.Connection(g))
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Edges) != len(out[j].Edges) {
			return len(out[i].Edges) < len(out[j].Edges)
		}
		return out[i].Key() < out[j].Key()
	})
	return out, err
}

// AnalyzeWithInstanceContext analyses the connection like Analyze and
// additionally performs instance-level corroboration on the data graph: a
// connection that only allows a loose association at the schema level is
// corroborated when a guaranteed-close connection between the same two end
// tuples exists with at most the same number of joins. This reproduces the
// paper's observation that connections 3, 4 and 7 are close at the instance
// level while connection 6 is not. The search for a close witness stops at
// the first one found, and returns ctx.Err() as soon as the context is
// cancelled.
func (a *Analyzer) AnalyzeWithInstanceContext(ctx context.Context, c Connection, g *datagraph.Graph) (Analysis, error) {
	an, err := a.Analyze(c)
	if err != nil {
		return Analysis{}, err
	}
	if an.Close || g == nil {
		return an, nil
	}
	from, okF := g.Tuples().Lookup(c.Start())
	to, okT := g.Tuples().Lookup(c.End())
	if !okF || !okT {
		return an, nil
	}
	key := c.Key()
	walkErr := WalkConnectionsIDs(ctx, g, from, to, an.RDBLength, func(p DensePath) bool {
		witness := p.Connection(g)
		if witness.Key() == key {
			return true
		}
		wa, err := a.Analyze(witness)
		if err != nil {
			return true
		}
		if wa.Close {
			an.CorroboratedAtInstance = true
			return false
		}
		return true
	})
	if walkErr != nil {
		return Analysis{}, walkErr
	}
	return an, nil
}
