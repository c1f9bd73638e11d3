package sparql

import (
	"fmt"
	"sync"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// parallelShapes covers every tail the morsel merge has to reproduce:
// plain scans, joins, LIMIT early-exit, OFFSET, both ORDER BY modes,
// DISTINCT, UNION, OPTIONAL (matched and unmatched), filters at every
// stage, and aggregates.
var parallelShapes = []string{
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . }`,
	`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . ?s <http://x/knows> ?o . }`,
	`SELECT ?s WHERE { ?s a <http://x/Person> . } LIMIT 9 OFFSET 4`,
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 10 OFFSET 3`,
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY DESC(?n) ?s LIMIT 10`,
	`SELECT DISTINCT ?o WHERE { ?s a ?o . }`,
	`SELECT ?s WHERE { { ?s a <http://x/Person> . } UNION { ?s <http://x/knows> <http://x/p1> . } } LIMIT 20`,
	`SELECT ?s ?n WHERE { ?s a <http://x/Person> . OPTIONAL { ?s <http://x/name> ?n . } FILTER (bound(?n)) }`,
	`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . FILTER (contains(str(?n), "7")) } LIMIT 12`,
	`SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`,
}

// TestParallelMatchesSerial is the direct tentpole contract on a store
// large enough for real multi-morsel schedules: for every shape and
// every worker count, the parallel rows equal the serial rows
// row-for-row, at both the default morsel size (few big morsels) and a
// tiny one (hundreds of morsels racing through the reorder window).
func TestParallelMatchesSerial(t *testing.T) {
	s := buildWide(t, 3000)
	s.BuildOrderLabels()
	defer func(n int) { parallelMorselSize = n }(parallelMorselSize)
	for _, morsel := range []int{store.DefaultMorselSize, 17} {
		parallelMorselSize = morsel
		for _, src := range parallelShapes {
			q := MustParse(src)
			serial, err := Eval(s, q, Options{Workers: 1})
			if err != nil {
				t.Fatalf("serial %q: %v", src, err)
			}
			want := rowStrings(serial)
			for _, w := range []int{2, 4, 8} {
				par, err := Eval(s, q, Options{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d %q: %v", w, src, err)
				}
				got := rowStrings(par)
				if len(got) != len(want) {
					t.Fatalf("morsel=%d workers=%d %q: %d rows, want %d", morsel, w, src, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("morsel=%d workers=%d %q: row %d = %q, want %q",
							morsel, w, src, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// termOnlyGraph strips the store down to the plain Graph interface, so
// the evaluator takes the query-local-dictionary path with no ID API
// and no pinning.
type termOnlyGraph struct{ s *store.Store }

func (g termOnlyGraph) Match(s, p, o rdf.Term, fn func(rdf.Triple) bool) { g.s.Match(s, p, o, fn) }
func (g termOnlyGraph) CardinalityEstimate(s, p, o rdf.Term) int {
	return g.s.CardinalityEstimate(s, p, o)
}

// TestParallelFallsBackToSerial: Workers > 1 on a graph without the
// IDGraph fast path must quietly evaluate serially and still be
// correct — parallelism is an optimization, never a requirement the
// graph has to meet.
func TestParallelFallsBackToSerial(t *testing.T) {
	s := buildWide(t, 200)
	for _, src := range parallelShapes {
		q := MustParse(src)
		want := rowStrings(eval(t, s, src))
		res, err := Eval(termOnlyGraph{s}, q, Options{Workers: 8})
		if err != nil {
			t.Fatalf("term-only workers=8 %q: %v", src, err)
		}
		got := rowStrings(res)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("term-only graph with workers=8 diverged on %q:\n%v\nwant:\n%v", src, got, want)
		}
	}
}

// TestParallelBudgetAborts: a budget error raised inside a worker must
// abort the whole evaluation and surface the error, without hanging the
// coordinator or leaking goroutines past Eval's return (the deferred
// pin release would fail loudly if workers were still scanning).
func TestParallelBudgetAborts(t *testing.T) {
	s := buildWide(t, 2000)
	defer func(n int) { parallelMorselSize = n }(parallelMorselSize)
	parallelMorselSize = 16
	q := MustParse(`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`)
	ticks := 0
	wantErr := fmt.Errorf("budget blown")
	_, err := Eval(s, q, Options{Workers: 4, Budget: func() error {
		ticks++
		if ticks > 500 {
			return wantErr
		}
		return nil
	}})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

// TestDefaultWorkersWiring pins the -parallel flag plumbing:
// Options.Workers == 0 defers to the process default, explicit values
// win over it, and sub-1 values clamp to serial.
func TestDefaultWorkersWiring(t *testing.T) {
	defer SetDefaultWorkers(DefaultWorkers())
	SetDefaultWorkers(1)
	if got := resolveWorkers(0); got != 1 {
		t.Fatalf("resolveWorkers(0) with default 1 = %d, want 1", got)
	}
	SetDefaultWorkers(6)
	if got := resolveWorkers(0); got != 6 {
		t.Fatalf("resolveWorkers(0) with default 6 = %d, want 6", got)
	}
	if got := resolveWorkers(3); got != 3 {
		t.Fatalf("resolveWorkers(3) = %d, want 3 (explicit beats default)", got)
	}
	if got := resolveWorkers(-2); got != 1 {
		t.Fatalf("resolveWorkers(-2) = %d, want 1", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != 1 {
		t.Fatalf("SetDefaultWorkers(0) left default at %d, want clamp to 1", got)
	}

	// And the default actually routes a zero-Options eval through the
	// parallel path with identical output.
	s := buildWide(t, 300)
	src := `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n LIMIT 10`
	want := rowStrings(eval(t, s, src))
	SetDefaultWorkers(4)
	got := rowStrings(eval(t, s, src))
	SetDefaultWorkers(1)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("default-workers eval diverged:\n%v\nwant:\n%v", got, want)
	}
}

// TestParallelConcurrentCommits is the -race stressor: parallel queries
// hammer the store while a writer interleaves online Adds and staged
// bulk commits. Every evaluation pins a consistent epoch, so queries
// must never error and every ORDER BY page must be internally
// consistent; the race detector checks the rest (worker scans vs
// publication, shared budget, rank table swaps).
func TestParallelConcurrentCommits(t *testing.T) {
	defer func(n int) { parallelMorselSize = n }(parallelMorselSize)
	parallelMorselSize = 8
	s := store.NewSharded(8)
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	name := rdf.NewIRI("http://x/name")
	knows := rdf.NewIRI("http://x/knows")
	addSubject := func(add func(rdf.Triple), i int) {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
		add(rdf.NewTriple(subj, typ, person))
		add(rdf.NewTriple(subj, name, rdf.NewLangLiteral(fmt.Sprintf("Person %d", i), "en")))
		add(rdf.NewTriple(subj, knows, rdf.NewIRI(fmt.Sprintf("http://x/p%d", i/2))))
	}
	for i := 0; i < 400; i++ {
		addSubject(s.MustAdd, i)
	}
	s.BuildOrderLabels()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		loader := store.NewBulkLoader(s)
		next := 400
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if round%3 == 0 {
				for b := 0; b < 5; b++ {
					addSubject(loader.MustAdd, next)
					next++
				}
				loader.Commit()
			} else {
				addSubject(s.MustAdd, next)
				next++
			}
			if round%10 == 0 {
				s.BuildOrderLabels()
			}
		}
	}()

	queries := []string{
		`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . } LIMIT 50`,
		`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY DESC(?n) LIMIT 12`,
		`SELECT DISTINCT ?t WHERE { ?s <http://x/knows> ?t . ?t <http://x/name> ?n . }`,
		`SELECT (COUNT(?s) AS ?c) WHERE { ?s a <http://x/Person> . }`,
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				src := queries[(r+i)%len(queries)]
				res, err := Eval(s, MustParse(src), Options{Workers: 4, Budget: func() error { return nil }})
				if err != nil {
					t.Errorf("reader %d: %q: %v", r, src, err)
					return
				}
				if res == nil {
					t.Errorf("reader %d: %q: nil results", r, src)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
