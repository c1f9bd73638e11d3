package sparql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// checkOrderLaws fails t unless compareTermsForOrder is a strict weak
// order over terms — in fact a total order, since distinct terms never
// compare equal: irreflexive, antisymmetric, total on distinct terms,
// and transitive over every triple.
func checkOrderLaws(t *testing.T, terms []rdf.Term) {
	t.Helper()
	n := len(terms)
	c := make([][]int, n)
	for i := range terms {
		c[i] = make([]int, n)
		for j := range terms {
			c[i][j] = compareTermsForOrder(terms[i], terms[j])
		}
	}
	for i := range terms {
		for j := range terms {
			switch {
			case sign(c[i][j]) != -sign(c[j][i]):
				t.Fatalf("not antisymmetric: cmp(%s, %s) = %d, reverse %d", terms[i], terms[j], c[i][j], c[j][i])
			case c[i][j] == 0 && terms[i] != terms[j]:
				t.Fatalf("distinct terms tie: %s, %s", terms[i], terms[j])
			case c[i][j] != 0 && terms[i] == terms[j]:
				t.Fatalf("term not equal to itself: %s", terms[i])
			}
		}
	}
	for i := range terms {
		for j := range terms {
			if c[i][j] >= 0 {
				continue
			}
			for k := range terms {
				if c[j][k] < 0 && c[i][k] >= 0 {
					t.Fatalf("not transitive: %s < %s < %s but cmp(%s, %s) = %d",
						terms[i], terms[j], terms[k], terms[i], terms[k], c[i][k])
				}
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// orderLexicals mixes numeric, numeric-looking and ordinary lexical
// forms: the shapes on which a value-first-then-term comparator used to
// be intransitive ("9" < "10" by value, "10" < "1a" and "1a" < "9" by
// term), equal values with different spellings, the ±Inf and NaN
// spellings ParseFloat accepts, and strings ParseFloat rejects.
var orderLexicals = []string{
	"9", "10", "1a", "-3", "+5", "0", "-0", "0.0", "1e3", "1E3", "1000", ".5", "5.",
	"Inf", "-Inf", "+inf", "infinity", "NaN", "nan", "abc", "", "10x", "9 lives",
	" 7", "0x1p-2", "1_000", "1e400", "Person 9", "z",
}

// mixedTerms builds the property tests' term set: each lexical form as a
// plain, language-tagged and integer-typed literal, plus IRIs, a blank
// node and the zero (unbound) term.
func mixedTerms(lexicals []string) []rdf.Term {
	terms := []rdf.Term{{}, rdf.NewIRI("http://x/9"), rdf.NewIRI("http://x/a"), rdf.NewBlank("b1")}
	for _, v := range lexicals {
		terms = append(terms, rdf.NewLiteral(v), rdf.NewLangLiteral(v, "en"), rdf.NewTypedLiteral(v, rdf.XSDInteger))
	}
	return terms
}

// TestOrderComparatorIsStrictWeakOrder pins the ORDER BY comparator's
// order laws over a seeded mixed literal set, so the top-k heap, the
// full sort and the reference's stable sort can never disagree.
func TestOrderComparatorIsStrictWeakOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lex := append([]string(nil), orderLexicals...)
	for i := 0; i < 24; i++ {
		switch rng.Intn(4) {
		case 0:
			lex = append(lex, fmt.Sprint(rng.Intn(200)-100))
		case 1:
			lex = append(lex, fmt.Sprintf("%.2f", rng.Float64()*20-10))
		case 2:
			lex = append(lex, fmt.Sprintf("%d%c", rng.Intn(20), 'a'+rune(rng.Intn(3))))
		default:
			lex = append(lex, fmt.Sprintf("%ce%d", '1'+rune(rng.Intn(9)), rng.Intn(4)))
		}
	}
	checkOrderLaws(t, mixedTerms(lex))

	// Numeric literals come first, by value; then other literals by term.
	lits := func(vs ...string) []rdf.Term {
		out := make([]rdf.Term, len(vs))
		for i, v := range vs {
			out[i] = rdf.NewLiteral(v)
		}
		return out
	}
	want := lits("-Inf", "-3", "1", "1.0", "9", "10", "1a", "NaN", "abc")
	for i := 1; i < len(want); i++ {
		if compareTermsForOrder(want[i-1], want[i]) >= 0 {
			t.Errorf("want %s before %s", want[i-1], want[i])
		}
	}
}

// FuzzOrderBy fuzzes an ORDER BY key column of literal strings ('|'
// separated) and checks two things: the comparator's order laws over
// the column, and that the bounded top-k heap's page equals
// stable-sort-then-page (the materializing reference) for one and two
// keys, ascending and descending. The store holds the first half of the
// rows under rank labels and the rest unlabeled, so the heap mixes
// label compares with term fallbacks; a second key column, permuted
// from the first, makes first-key ties reach the second key and the
// arrival-order tie-break.
func FuzzOrderBy(f *testing.F) {
	f.Add("9|10|1a|-3|x|NaN|1e3|+5|10|1a", uint8(3), uint8(1))
	f.Add("b|a|c|a|b|a", uint8(2), uint8(0))
	f.Add("1|1.0|01|+1|1e0|one|1", uint8(4), uint8(2))
	f.Add("Inf|-inf|infinity|nan|0|-0|.5|5.", uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, col string, limit, offset uint8) {
		lex := strings.Split(col, "|")
		if len(lex) > 32 {
			lex = lex[:32]
		}
		terms := make([]rdf.Term, len(lex))
		for i, v := range lex {
			switch i % 3 {
			case 0:
				terms[i] = rdf.NewLiteral(v)
			case 1:
				terms[i] = rdf.NewLangLiteral(v, "en")
			default:
				terms[i] = rdf.NewTypedLiteral(v, rdf.XSDInteger)
			}
		}
		checkOrderLaws(t, terms)

		s := store.New()
		k, j := rdf.NewIRI("http://x/k"), rdf.NewIRI("http://x/j")
		for i := range terms {
			if i == len(terms)/2 {
				s.BuildOrderLabels()
			}
			subj := rdf.NewIRI(fmt.Sprintf("http://x/r%02d", i))
			s.MustAdd(rdf.NewTriple(subj, k, terms[i]))
			s.MustAdd(rdf.NewTriple(subj, j, terms[(i*7+3)%len(terms)]))
		}
		page := fmt.Sprintf(" LIMIT %d OFFSET %d", 1+int(limit)%16, int(offset)%8)
		for _, keys := range []string{"?k", "DESC(?k)", "?k DESC(?j)", "DESC(?k) ?j"} {
			base := `SELECT ?s ?k ?j WHERE { ?s <http://x/k> ?k . ?s <http://x/j> ?j . } ORDER BY ` + keys
			for _, src := range []string{base, base + page} {
				q := MustParse(src)
				got, err := Eval(s, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := refEval(s, q)
				if err != nil {
					t.Fatal(err)
				}
				if gd, wd := dumpOrdered(got), dumpOrdered(want); gd != wd {
					t.Fatalf("%s\n--- streaming ---\n%s\n--- stable sort ---\n%s", src, gd, wd)
				}
			}
		}
	})
}
