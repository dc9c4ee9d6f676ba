package shard

import (
	"sync"

	"repro/internal/symtab"
)

// Matcher is the scatter-gather keyword resolver of one cut: a keyword fans
// out to every shard's inverted index on its own goroutine, and the gathered
// matches are translated into a composed generation's dense ID space. The
// shards partition the tuple set, so the gathered union equals the composed
// index's match set. It is safe for concurrent use: the cut it captures is
// immutable.
type Matcher struct {
	states *States
	tuples *symtab.Tuples
}

// NewMatcher builds the scatter-gather resolver for one cut. tuples is the
// composed generation's interned tuple space — the same generation the cut
// was published with.
func NewMatcher(states *States, tuples *symtab.Tuples) *Matcher {
	return &Matcher{states: states, tuples: tuples}
}

// MatchIDs scatters the keyword to every shard and gathers the composed
// dense IDs of the matching tuples, in shard order.
func (m *Matcher) MatchIDs(keyword string) []uint32 {
	perShard := make([][]uint32, len(m.states.Parts))
	var wg sync.WaitGroup
	for s, part := range m.states.Parts {
		wg.Add(1)
		go func(s int, part *Part) {
			defer wg.Done()
			local := part.Index.MatchIDs(keyword)
			if len(local) == 0 {
				return
			}
			shardTuples := part.Index.Tuples()
			out := make([]uint32, 0, len(local))
			for _, dense := range local {
				if composed, ok := m.tuples.Lookup(shardTuples.ID(dense)); ok {
					out = append(out, composed)
				}
			}
			perShard[s] = out
		}(s, part)
	}
	wg.Wait()
	var total int
	for _, ids := range perShard {
		total += len(ids)
	}
	gathered := make([]uint32, 0, total)
	for _, ids := range perShard {
		gathered = append(gathered, ids...)
	}
	return gathered
}
