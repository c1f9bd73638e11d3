package bootstrap

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// flatCache initializes a cache over a small flat dataset in which one
// literal, "name", has the same text as the display name of the
// predicate http://x/name, so the tree indexes it as a display name.
func flatCache(t *testing.T) *Cache {
	t.Helper()
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	name := rdf.NewIRI("http://x/name")
	for i := 0; i < 12; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, rdf.NewIRI("http://x/Thing")))
		s.MustAdd(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("entity %d", i), "en")))
	}
	s.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/e0"), rdf.NewIRI("http://x/label"), rdf.NewLangLiteral("name", "en")))
	c, err := Initialize(context.Background(), endpoint.NewLocal("flat", s, endpoint.Limits{}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func roundTrip(t *testing.T, c *Cache) *Cache {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestTreeLiteralsMatchFilter pins the tree-literal list to its
// definition — the cached literals the suffix tree indexes, each once —
// for caches built by Initialize, Load and MergeCaches.
func TestTreeLiteralsMatchFilter(t *testing.T) {
	small, flat := initTestCache(t), flatCache(t)
	if !flat.InSuffixTree("name") {
		t.Fatal(`flat cache: literal "name" should be indexed as a display name`)
	}
	caches := map[string]*Cache{
		"initialize":       small,
		"initialize/flat":  flat,
		"load":             roundTrip(t, small),
		"load/flat":        roundTrip(t, flat),
		"merge":            MergeCaches(small, flat),
		"merge/round-trip": roundTrip(t, MergeCaches(small, flat)),
	}
	for name, c := range caches {
		var want []string
		for _, lex := range c.Literals() {
			if c.InSuffixTree(lex) {
				want = append(want, lex)
			}
		}
		got := append([]string(nil), c.TreeLiterals()...)
		sort.Strings(got)
		if len(want) == 0 {
			t.Fatalf("%s: no tree literals", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tree literals (%d) differ from the filtered cache literals (%d)", name, len(got), len(want))
		}
	}
}

// TestSaveKeepsTreeOrder pins that Save→Load indexes the tree literals in
// the same order, which is what keeps completion rankings stable.
func TestSaveKeepsTreeOrder(t *testing.T) {
	for _, c := range []*Cache{initTestCache(t), flatCache(t)} {
		loaded := roundTrip(t, c)
		if !reflect.DeepEqual(loaded.TreeLiterals(), c.TreeLiterals()) {
			t.Errorf("%s: tree-literal order changed across Save/Load", c.Endpoint)
		}
		if loaded.Tree.NodeCount() != c.Tree.NodeCount() {
			t.Errorf("%s: tree nodes %d after Load, %d before", c.Endpoint, loaded.Tree.NodeCount(), c.Tree.NodeCount())
		}
	}
}
