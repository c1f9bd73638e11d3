// Package steiner implements the query-structure relaxation of Section
// 6.2.2: connecting the literals of a query (and their alternatives)
// through the remote RDF graph by growing an approximate Steiner tree
// with a budgeted, memoized, bidirectional Dijkstra expansion
// (Algorithm 3). Edges whose predicate matches a query predicate (or an
// alternative of one) get weight w_q; all other edges get
// w_default > w_q, so the expansion prefers paths that reuse the user's
// own predicates.
package steiner

import (
	"context"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// Source exposes the two expansion queries of the paper: all triples with
// v as object (the only expansion possible for literals) and all triples
// with v as subject. Implementations are expected to be remote (the
// federation is the one the QSM uses); the algorithm memoizes and
// budgets calls.
type Source interface {
	// TriplesWithObject returns triples (?s, ?p, v).
	TriplesWithObject(ctx context.Context, v rdf.Term) ([]rdf.Triple, error)
	// TriplesWithSubject returns triples (v, ?p, ?o). Never called for
	// literals.
	TriplesWithSubject(ctx context.Context, v rdf.Term) ([]rdf.Triple, error)
}

// StoreSource adapts an in-memory store as a Source (warehouse mode).
type StoreSource struct{ Store *store.Store }

// TriplesWithObject implements Source.
func (s StoreSource) TriplesWithObject(_ context.Context, v rdf.Term) ([]rdf.Triple, error) {
	return s.Store.MatchSlice(rdf.Term{}, rdf.Term{}, v), nil
}

// TriplesWithSubject implements Source.
func (s StoreSource) TriplesWithSubject(_ context.Context, v rdf.Term) ([]rdf.Triple, error) {
	return s.Store.MatchSlice(v, rdf.Term{}, rdf.Term{}), nil
}
