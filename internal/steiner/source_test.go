package steiner

import (
	"context"
	"fmt"

	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
)

// EndpointSource adapts a SPARQL endpoint as a Source for the tests that
// count expansion queries at the endpoint; each call issues one query,
// which is what the expansion budget counts.
type EndpointSource struct{ Endpoint endpoint.Endpoint }

// TriplesWithObject implements Source.
func (s EndpointSource) TriplesWithObject(ctx context.Context, v rdf.Term) ([]rdf.Triple, error) {
	q := fmt.Sprintf("SELECT ?s ?p WHERE { ?s ?p %s . }", v)
	res, err := s.Endpoint.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make([]rdf.Triple, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, rdf.Triple{S: row["s"], P: row["p"], O: v})
	}
	return out, nil
}

// TriplesWithSubject implements Source.
func (s EndpointSource) TriplesWithSubject(ctx context.Context, v rdf.Term) ([]rdf.Triple, error) {
	q := fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o . }", v)
	res, err := s.Endpoint.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make([]rdf.Triple, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, rdf.Triple{S: v, P: row["p"], O: row["o"]})
	}
	return out, nil
}
