package pum

import (
	"context"
	"fmt"
	"sort"

	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/steiner"
)

// Relax implements the structure relaxation of Section 6.2.2: the query's
// literals (each grouped with its top alternatives, from litAlts) become
// Steiner seed groups; the expansion connects them through the remote
// graph, preferring edges whose predicate appears in the query or among
// its predicate alternatives; the resulting tree is generalized into a
// new SPARQL query whose non-literal vertices become variables. Returns
// nil when the query has no literals or no connection was found.
func (p *PUM) Relax(ctx context.Context, q *sparql.Query, litAlts []Suggestion) (*Suggestion, error) {
	groups := p.seedGroups(q, litAlts)
	if len(groups) == 0 {
		return nil, nil
	}
	preferred := p.preferredPredicates(q)
	res, err := steiner.Connect(ctx, p.fed, groups, preferred, p.cfg.Relax)
	if err != nil {
		return nil, err
	}
	if !res.Connected || len(res.Tree) == 0 {
		return nil, nil
	}
	nq := treeToQuery(res.Tree, q)
	exec, err := p.fed.Eval(ctx, nq)
	if err != nil || len(exec.Rows) == 0 {
		return nil, nil
	}
	return &Suggestion{
		Kind:        Relaxation,
		Query:       nq,
		TripleIndex: -1,
		Answers:     len(exec.Rows),
		Prefetched:  exec,
	}, nil
}

// seedGroups builds one group per query literal: the literal itself plus
// the top k−1 alternative literals found for it (Algorithm 3 lines 1–4).
func (p *PUM) seedGroups(q *sparql.Query, litAlts []Suggestion) [][]rdf.Term {
	var groups [][]rdf.Term
	for ti, pat := range q.Where {
		if pat.O.IsVar() || !pat.O.Term.IsLiteral() {
			continue
		}
		group := []rdf.Term{pat.O.Term}
		// Alternatives for this triple's literal, best first.
		var alts []Suggestion
		for _, a := range litAlts {
			if a.Kind == AltLiteral && a.TripleIndex == ti {
				alts = append(alts, a)
			}
		}
		sort.SliceStable(alts, func(i, j int) bool { return alts[i].Score > alts[j].Score })
		for i, a := range alts {
			if i >= p.cfg.K-1 {
				break
			}
			if t, ok := p.cache.LiteralTerm(a.New); ok {
				group = append(group, t)
			}
		}
		groups = append(groups, group)
	}
	if len(groups) < 2 {
		// Connecting fewer than two groups is a no-op; the paper only
		// relaxes queries whose literals need joining.
		return nil
	}
	return groups
}

// preferredPredicates returns the predicate IRIs that get weight w_q in
// the expansion: the query's own predicates plus their cached
// alternatives above θ.
func (p *PUM) preferredPredicates(q *sparql.Query) map[string]bool {
	out := make(map[string]bool)
	for _, pat := range q.Where {
		if pat.P.IsVar() {
			continue
		}
		out[pat.P.Term.Value] = true
		d := displayOf(pat.P.Term)
		for _, verb := range p.lex.Lexica(d) {
			for _, cand := range p.cache.Predicates {
				if p.cfg.Measure(verb, displayOf(cand)) >= p.cfg.Theta {
					out[cand.Value] = true
				}
			}
		}
	}
	return out
}

// treeToQuery generalizes a Steiner tree into a SPARQL query: literal
// vertices stay constant, IRI vertices become fresh variables, and every
// tree edge becomes a triple pattern. All variables are projected
// (SELECT *), mirroring the UI's default of including all variables.
func treeToQuery(tree []rdf.Triple, orig *sparql.Query) *sparql.Query {
	vars := make(map[rdf.Term]string)
	sorted := append([]rdf.Triple(nil), tree...)
	sort.Slice(sorted, func(i, j int) bool {
		if c := sorted[i].S.Compare(sorted[j].S); c != 0 {
			return c < 0
		}
		return sorted[i].O.Compare(sorted[j].O) < 0
	})
	nodeFor := func(t rdf.Term) sparql.Node {
		if t.IsLiteral() {
			return sparql.NewTermNode(t)
		}
		v, ok := vars[t]
		if !ok {
			v = fmt.Sprintf("v%d", len(vars))
			vars[t] = v
		}
		return sparql.NewVar(v)
	}
	q := &sparql.Query{
		Prefixes:  map[string]string{},
		SelectAll: true,
		Limit:     -1,
	}
	for k, v := range orig.Prefixes {
		q.Prefixes[k] = v
	}
	for _, tr := range sorted {
		q.Where = append(q.Where, sparql.Pattern{
			S: nodeFor(tr.S),
			P: sparql.NewTermNode(tr.P),
			O: nodeFor(tr.O),
		})
	}
	return q
}
