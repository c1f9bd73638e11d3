package pum_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"sapphire/internal/bootstrap"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/operator"
	"sapphire/internal/pum"
	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/steiner"
)

func smallWorld(t *testing.T) (*endpoint.Local, *bootstrap.Cache) {
	t.Helper()
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	cache, err := bootstrap.Initialize(context.Background(), ep, bootstrap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ep, cache
}

// TestCompleteSurvivesSaveLoad pins that a cache round-tripped through
// Save and Load completes every prefix of every QALD keyword with the
// same top-K, in the same order.
func TestCompleteSurvivesSaveLoad(t *testing.T) {
	ep, cache := smallWorld(t)
	var buf bytes.Buffer
	if err := cache.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bootstrap.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fed := federation.New(ep)
	before := pum.New(cache, fed, nil, pum.DefaultConfig())
	after := pum.New(loaded, fed, nil, pum.DefaultConfig())
	seen := make(map[string]bool)
	prefixes := 0
	for _, q := range qald.Questions() {
		for _, tr := range q.Plan.Triples {
			for _, n := range []qald.Node{tr.S, tr.P, tr.O} {
				kw := []rune(n.Keyword)
				for i := 1; i <= len(kw); i++ {
					prefix := string(kw[:i])
					if seen[prefix] {
						continue
					}
					seen[prefix] = true
					prefixes++
					if b, a := before.Complete(prefix), after.Complete(prefix); !reflect.DeepEqual(b, a) {
						t.Errorf("Complete(%q) after Save/Load:\n got %v\nwant %v", prefix, a, b)
					}
				}
			}
		}
	}
	if prefixes == 0 {
		t.Fatal("no QALD keyword prefixes")
	}
}

// sparqlSource expands Steiner vertices by sending SPARQL text through
// the federation's parser and evaluator and turning the result rows back
// into triples: the reference for reading the pattern cache directly.
type sparqlSource struct{ fed *federation.Federation }

func (s sparqlSource) TriplesWithObject(ctx context.Context, v rdf.Term) ([]rdf.Triple, error) {
	res, err := s.fed.Query(ctx, fmt.Sprintf("SELECT ?s ?p WHERE { ?s ?p %s . }", v))
	if err != nil {
		return nil, err
	}
	out := make([]rdf.Triple, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, rdf.Triple{S: row["s"], P: row["p"], O: v})
	}
	return out, nil
}

func (s sparqlSource) TriplesWithSubject(ctx context.Context, v rdf.Term) ([]rdf.Triple, error) {
	res, err := s.fed.Query(ctx, fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o . }", v))
	if err != nil {
		return nil, err
	}
	out := make([]rdf.Triple, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, rdf.Triple{S: v, P: row["p"], O: row["o"]})
	}
	return out, nil
}

// TestSteinerFederationSourceMatchesSPARQL pins that expanding straight
// off the federation finds the same Steiner result as expanding through
// SPARQL queries, for every user-study plan with two or more literals.
func TestSteinerFederationSourceMatchesSPARQL(t *testing.T) {
	ep, cache := smallWorld(t)
	p := pum.New(cache, federation.New(ep), nil, pum.DefaultConfig())
	op := operator.New(p)
	cfg := p.Config().Relax
	ctx := context.Background()
	compared, connected := 0, 0
	for _, q := range qald.UserStudyQuestions() {
		query, err := op.BuildQuery(q.Plan)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		groups, preferred := p.RelaxInputs(query)
		if len(groups) < 2 {
			continue
		}
		direct, err := steiner.Connect(ctx, federation.New(ep), groups, preferred, cfg)
		if err != nil {
			t.Fatalf("%s: federation source: %v", q.ID, err)
		}
		viaSPARQL, err := steiner.Connect(ctx, sparqlSource{federation.New(ep)}, groups, preferred, cfg)
		if err != nil {
			t.Fatalf("%s: SPARQL source: %v", q.ID, err)
		}
		if !reflect.DeepEqual(direct, viaSPARQL) {
			t.Errorf("%s: federation source %+v, SPARQL source %+v", q.ID, direct, viaSPARQL)
		}
		compared++
		if direct.Connected {
			connected++
		}
	}
	if connected == 0 {
		t.Fatalf("none of %d user-study plans with two literals connected", compared)
	}
}
