package kws

import (
	"repro/internal/paperdb"
	"repro/internal/relation"
)

// EngineKind selects a search strategy. The built-in kinds are EnginePaths,
// EngineMTJNT and EngineBANKS; additional kinds can be added with
// RegisterEngine. The untyped string constants of earlier releases convert
// implicitly, so existing Config literals keep compiling.
type EngineKind string

// Built-in search engine kinds.
const (
	// EnginePaths enumerates every connection between keyword tuples up to
	// the join budget (the paper's proposal).
	EnginePaths EngineKind = "paths"
	// EngineMTJNT returns only minimal total joining networks of tuples
	// (the DISCOVER baseline).
	EngineMTJNT EngineKind = "mtjnt"
	// EngineBANKS runs backward expanding search (the BANKS baseline);
	// only its path-shaped answers are returned.
	EngineBANKS EngineKind = "banks"
)

// RankStrategy selects a ranking strategy. The built-in strategies are
// listed below; additional strategies can be added with RegisterRanker.
type RankStrategy string

// Built-in ranking strategies.
const (
	// RankRDBLength ranks by the number of joins in the relational
	// database (the conventional length-based ranking).
	RankRDBLength RankStrategy = "rdb-length"
	// RankERLength ranks by conceptual length: middle relations
	// implementing N:M relationships do not count.
	RankERLength RankStrategy = "er-length"
	// RankCloseFirst ranks close associations first, then corroborated
	// loose ones, then the rest, breaking ties by conceptual length.
	RankCloseFirst RankStrategy = "close-first"
	// RankLoosenessPenalty ranks by conceptual length plus a penalty per
	// transitive N:M sub-path.
	RankLoosenessPenalty RankStrategy = "looseness-penalty"
	// RankHubPenalty additionally charges for the tuples associated by
	// every general-entity hub at the instance level.
	RankHubPenalty RankStrategy = "hub-penalty"
	// RankCombined mixes conceptual length with the TF-IDF content score.
	RankCombined RankStrategy = "combined"
)

// Toggle is a three-valued option: inherit the engine default, force on, or
// force off.
type Toggle int

const (
	// ToggleDefault inherits the engine's configured default.
	ToggleDefault Toggle = iota
	// ToggleOn forces the option on for this query.
	ToggleOn
	// ToggleOff forces the option off for this query.
	ToggleOff
)

// TupleID identifies a tuple as its relation name plus encoded primary key;
// it renders as "RELATION[key]".
type TupleID = relation.TupleID

// Labeler maps a tuple identifier to the label used when rendering results.
type Labeler func(TupleID) string

// PaperLabeler returns the labeler that renders the paper's running example
// with the labels of its Tables 2-3 (d1, p1, e1, w_f1, ...). Pass it via
// WithLabeler or Query.Labeler when searching PaperExample.
func PaperLabeler() Labeler { return paperdb.DisplayLabel }

// Query is one keyword search call. The zero value of every option inherits
// the engine's configured default, so a Query usually only carries keywords:
//
//	engine.Search(ctx, kws.Query{Keywords: []string{"Smith", "XML"}})
//
// One Engine serves many concurrent queries with different options.
type Query struct {
	// Keywords are the query keywords (AND semantics: every keyword must be
	// matched by some tuple of an answer).
	Keywords []string
	// Engine selects the search strategy for this query ("" = the engine
	// default).
	Engine EngineKind
	// Ranking selects the ranking strategy for this query ("" = the engine
	// default). Streamed results are not ranked; see Engine.Stream.
	Ranking RankStrategy
	// MaxJoins is the connection budget in joins (0 = the engine default).
	MaxJoins int
	// TopK caps the number of results for this query: 0 inherits the engine
	// default, negative means all results.
	TopK int
	// InstanceChecks toggles the instance-level corroboration analysis, the
	// most expensive part of result annotation.
	InstanceChecks Toggle
	// LoosenessLambda is the penalty per transitive N:M sub-path used by
	// RankLoosenessPenalty (0 = the engine default). NaN and ±Inf are
	// rejected, and so is a query whose penalty overflows a score to ±Inf.
	LoosenessLambda float64
	// Labeler renders tuple identifiers in this query's results (nil = the
	// engine's labeler, which defaults to TupleID.String).
	Labeler Labeler
	// Parallelism bounds the worker goroutines of this query's internal
	// fan-out — keyword expansions in BANKS, per-source enumerations and
	// the ordered annotation pipeline in paths (0 = the engine default,
	// which itself defaults to GOMAXPROCS; 1 = fully sequential). Inside
	// SearchBatch the concurrency budget is spent across queries instead,
	// so 0 means sequential internals there (see Engine.SearchBatch).
	// Results are deterministic for any value.
	Parallelism int
}
