package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// rwOp is one op of the sparql-rw workload: a read of the read set, or
// a write (POST /add of freshFacts) when read is -1.
type rwOp struct {
	read int
}

// writeEvery makes every writeEvery-th op a write.
const writeEvery = 10

// factsPerWrite is the number of fresh facts one write adds.
const factsPerWrite = 5

// freshFacts is write k's body: fresh dbo:name facts on untyped
// subjects, so no read of the read set changes its answer.
func freshFacts(ns string, seed int64, k int) string {
	var b strings.Builder
	for j := 0; j < factsPerWrite; j++ {
		fmt.Fprintf(&b, "<http://example.org/sapbench/%s/%d/%d/%d> <%s> \"bench fact %s %d %d %d\"@en .\n",
			ns, seed, k, j, predName, ns, seed, k, j)
	}
	return b.String()
}

// readSet builds the sparql-rw read queries in a fixed order (the zipf
// rank): per class, a member listing and a member count; ORDER BY page
// walks over the big classes; and the QALD gold queries.
func readSet(st *store.Store) []string {
	typeP := rdf.NewIRI(rdf.RDFType)
	counts := make(map[rdf.Term]int)
	st.Match(rdf.Term{}, typeP, rdf.Term{}, func(tr rdf.Triple) bool {
		counts[tr.O]++
		return true
	})
	classes := make([]rdf.Term, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].Value < classes[j].Value })
	var qs []string
	for _, c := range classes {
		qs = append(qs,
			fmt.Sprintf("SELECT ?s ?n WHERE { ?s a %s . ?s <%s> ?n . }", c, predName),
			fmt.Sprintf("SELECT (COUNT(?s) AS ?c) WHERE { ?s a %s . }", c))
		if counts[c] >= 1000 {
			for page := 0; page < 10; page++ {
				qs = append(qs, fmt.Sprintf(
					"SELECT ?s ?n WHERE { ?s a %s . ?s <%s> ?n . } ORDER BY ?n ?s LIMIT 20 OFFSET %d",
					c, predName, page*20))
			}
		}
	}
	for _, q := range qald.Questions() {
		qs = append(qs, q.Gold)
	}
	// A fixed shuffle decides which reads are hot; it does not depend on
	// the run seed, so every seed sees the same hot set.
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// rwStream generates n sparql-rw ops over a read set of size reads.
func rwStream(seed int64, n, reads int) []rwOp {
	rng := seedRNG(seed, "sparql-rw")
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(reads-1))
	out := make([]rwOp, n)
	for i := range out {
		if i%writeEvery == writeEvery-1 {
			out[i] = rwOp{read: -1}
			continue
		}
		out[i] = rwOp{read: int(zipf.Uint64())}
	}
	return out
}

// rwStreamLen is how many sparql-rw ops a run generates; the stream
// wraps around if a run ever outpaces it.
const rwStreamLen = 200000

// sparqlRW drives the member's SPARQL protocol directly, reads beside
// writes. Every write advances the store epoch and so invalidates the
// result cache; the workload runs the endpoint cache, sparql, store,
// the WAL and N-Triples parsing, and bypasses pum, federation and webapi.
type sparqlRW struct {
	ref     *reference
	seed    int64
	reads   []string
	answers map[string]string
	ordered map[string]bool
	ops     []rwOp
	initial int // the member's triple count when it became ready
}

func newSparqlRW(opts options, ref *reference) (*sparqlRW, error) {
	reads, answers, ord, err := invariantReads(ref.store, readSet(ref.store))
	if err != nil {
		return nil, err
	}
	s := &sparqlRW{ref: ref, seed: opts.seed, reads: reads,
		answers: make(map[string]string), ordered: make(map[string]bool)}
	for i, q := range reads {
		s.answers[q] = answers[i]
		s.ordered[q] = ord[i]
	}
	s.ops = rwStream(opts.seed, rwStreamLen, len(reads))
	return s, nil
}

func (s *sparqlRW) opDigest(seed int64) string {
	d := newDigest()
	for i, o := range rwStream(seed, digestOps, len(s.reads)) {
		if o.read < 0 {
			d.add(freshFacts("w", seed, i/writeEvery))
		} else {
			d.add(s.reads[o.read])
		}
	}
	return d.sum()
}

func (s *sparqlRW) next(i int) op {
	o := s.ops[i%len(s.ops)]
	if o.read < 0 {
		// Writes stay fresh past a wrap: k counts every write sent.
		return writeOp(freshFacts("w", s.seed, i/writeEvery))
	}
	return readOp(s.reads[o.read])
}

func (s *sparqlRW) drive(ctx context.Context, m *measurement) error {
	s.initial = m.srv.ready.Triples
	m.warm.base = m.srv.ready.Member
	m.window.base = m.srv.ready.Member
	from, _ := m.warm.closedLoop(ctx, warmup, s.next, 0)
	return m.measure(func() time.Duration {
		_, el := m.window.closedLoop(ctx, m.windowSeconds(), s.next, from)
		return el
	})
}

func (s *sparqlRW) reference(_ context.Context, key string) (string, error) {
	if key == "write" {
		return fmt.Sprintf("added %d triples", factsPerWrite), nil
	}
	return s.answers[key], nil
}

func (s *sparqlRW) canon(key string, body []byte) (string, error) {
	if key == "write" {
		return strings.TrimSpace(string(body)), nil
	}
	return sparqlBodyCanon(body, s.ordered[key])
}

// extraFailures checks the writes as a whole: the member must have
// gained exactly the facts of the writes it acknowledged.
func (s *sparqlRW) extraFailures(m *measurement) int {
	acked := 0
	for _, d := range []*loadGen{m.warm, m.window} {
		for _, o := range d.col.outcomes {
			if o.write && o.err == nil {
				acked++
			}
		}
	}
	want := s.initial + factsPerWrite*acked
	if got := m.after.Triples; got != want {
		fmt.Printf("write check: member holds %d triples, %d acknowledged writes imply %d\n", got, acked, want)
		return max(1, abs(got-want)/factsPerWrite)
	}
	fmt.Printf("write check: %d acknowledged writes, member grew by exactly %d triples\n", acked, factsPerWrite*acked)
	return 0
}

func (s *sparqlRW) layers(_ context.Context, m *measurement, out map[string]float64) {
	var parse []float64
	for _, o := range m.window.col.outcomes {
		if !o.write || len(parse) == maxReplay {
			continue
		}
		t0 := time.Now()
		if _, err := rdf.NewReader(strings.NewReader(o.payload)).ReadAll(); err == nil {
			parse = append(parse, us(time.Since(t0)))
		}
	}
	out["rdf.ntriples_parse_us"] = median(parse)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
