package pum

import (
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// RelaxInputs exposes the Steiner seed groups and preferred predicates
// Relax derives from a query, for the external equivalence tests.
func (p *PUM) RelaxInputs(q *sparql.Query) ([][]rdf.Term, map[string]bool) {
	return p.seedGroups(q, p.literalAlternatives(q)), p.preferredPredicates(q)
}
