package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sapphire/internal/bootstrap"
	"sapphire/internal/operator"
	"sapphire/internal/pum"
	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// runOp is one POST /run of the run-repair workload.
type runOp struct {
	plan  qald.Plan
	query string
	warm  bool   // one of the 27 repeated user-study plans
	input string // the plan as typed: the op-stream digest covers this
}

// runTemplate is a user-study plan plus, per literal keyword, the names
// of other dataset entities of the same most specific class.
type runTemplate struct {
	q     qald.Question
	fills map[int][]string // plan triple index → candidate names
}

const predName = rdf.NSDBO + "name"

// runTemplates prepares the 27 user-study plans for filling.
func runTemplates(st *store.Store) []runTemplate {
	var out []runTemplate
	for _, q := range qald.UserStudyQuestions() {
		t := runTemplate{q: q, fills: make(map[int][]string)}
		for i, tr := range q.Plan.Triples {
			if tr.O.IsLiteral {
				t.fills[i] = sameClassNames(st, tr.O.Keyword)
			}
		}
		out = append(out, t)
	}
	return out
}

// sameClassNames returns the English names of the entities sharing the
// most specific class of the entity named name, sorted. No store read
// runs inside a Match callback, which holds the shard read locks.
func sameClassNames(st *store.Store, name string) []string {
	nameP := rdf.NewIRI(predName)
	typeP := rdf.NewIRI(rdf.RDFType)
	named := st.MatchSlice(rdf.Term{}, nameP, rdf.NewLangLiteral(name, "en"))
	if len(named) == 0 {
		return nil
	}
	var class rdf.Term
	best := math.MaxInt
	for _, tr := range st.MatchSlice(named[0].S, typeP, rdf.Term{}) {
		if n := st.Count(rdf.Term{}, typeP, tr.O); n < best {
			best, class = n, tr.O
		}
	}
	if class.IsZero() {
		return nil
	}
	seen := map[string]bool{name: true}
	var out []string
	for _, member := range st.MatchSlice(rdf.Term{}, typeP, class) {
		for _, n := range st.MatchSlice(member.S, nameP, rdf.Term{}) {
			if n.O.Lang == "en" && !seen[n.O.Value] {
				seen[n.O.Value] = true
				out = append(out, n.O.Value)
			}
		}
	}
	sort.Strings(out)
	return out
}

// planInput renders a plan as the user typed it, for the digest.
func planInput(p qald.Plan) string {
	var b strings.Builder
	for _, t := range p.Triples {
		for _, n := range []qald.Node{t.S, t.P, t.O} {
			if n.Var != "" {
				b.WriteString("?" + n.Var)
			} else {
				fmt.Fprintf(&b, "%q", n.Keyword)
			}
			b.WriteByte(' ')
		}
		b.WriteString(". ")
	}
	fmt.Fprintf(&b, "F[%s] O[%s] L%d C%v P%s", p.Filter, p.OrderDesc, p.Limit, p.Count, p.Project)
	return b.String()
}

// distortPlan misspells every keyword of a plan; fill, when non-nil,
// first replaces literal keywords with other entities' names.
func distortPlan(rng *rand.Rand, t runTemplate, fill bool) qald.Plan {
	p := t.q.Plan
	p.Triples = append([]qald.PlanTriple(nil), p.Triples...)
	for i := range p.Triples {
		tr := &p.Triples[i]
		if names := t.fills[i]; fill && len(names) > 0 {
			tr.O.Keyword = names[rng.Intn(len(names))]
		}
		if tr.P.Keyword != "" {
			tr.P.Keyword = misspell(rng, tr.P.Keyword)
		}
		if tr.O.Keyword != "" {
			tr.O.Keyword = misspell(rng, tr.O.Keyword)
		}
	}
	return p
}

// runPlans generates n run-repair plans, alternating repeated and new
// ones. A repeated plan is one of the 27 user-study plans with one
// misspelling fixed for all seeds, so what the warm half costs does not
// depend on the seed; a new plan fills an easy or medium user-study
// plan with other entities' names and misspells it afresh, so the
// server has not seen it. Each kind walks seeded permutations of its
// templates, so every window holds nearly the same template mix
// whatever the seed. Difficult plans run in the repeated half only:
// filled with other names, single difficult plans ran for up to 8 s,
// longer than a whole window.
func runPlans(seed int64, n int, templates []runTemplate) []runOp {
	wrng := seedRNG(0, "run-repair/warm")
	warm := make([]runOp, len(templates))
	for i, t := range templates {
		p := distortPlan(wrng, t, false)
		warm[i] = runOp{plan: p, warm: true, input: t.q.ID + " " + planInput(p)}
	}
	var fillable []runTemplate
	for _, t := range templates {
		if t.q.Difficulty == qald.Difficult {
			continue
		}
		for _, names := range t.fills {
			if len(names) > 0 {
				fillable = append(fillable, t)
				break
			}
		}
	}
	rng := seedRNG(seed, "run-repair")
	var warmPerm, coldPerm []int
	out := make([]runOp, 0, n)
	for len(out) < n {
		if len(out)%2 == 0 {
			if len(warmPerm) == 0 {
				warmPerm = rng.Perm(len(warm))
			}
			out = append(out, warm[warmPerm[0]])
			warmPerm = warmPerm[1:]
			continue
		}
		if len(coldPerm) == 0 {
			coldPerm = rng.Perm(len(fillable))
		}
		t := fillable[coldPerm[0]]
		coldPerm = coldPerm[1:]
		p := distortPlan(rng, t, true)
		out = append(out, runOp{plan: p, input: t.q.ID + " " + planInput(p)})
	}
	return out
}

// buildQueries turns plans into SPARQL the way a user of the interface
// would: operator.BuildQuery resolves each keyword through the QCM.
// Plans repeat, so each distinct plan is built once. Queries that join
// through a literal (see joinsThroughLiteral) are set aside: the
// returned ops omit them, and setAside counts them.
func buildQueries(ops []runOp, o *operator.Operator, st *store.Store) (kept []runOp, setAside int, err error) {
	litPreds := literalPredicates(st)
	built := make(map[string]*sparql.Query)
	for _, op := range ops {
		q, ok := built[op.input]
		if !ok {
			if q, err = o.BuildQuery(op.plan); err != nil {
				return nil, 0, fmt.Errorf("building %s: %w", op.input, err)
			}
			built[op.input] = q
		}
		if joinsThroughLiteral(q, litPreds) {
			setAside++
			continue
		}
		op.query = q.String()
		kept = append(kept, op)
	}
	return kept, setAside, nil
}

// literalPredicates returns the predicates with a literal object.
func literalPredicates(st *store.Store) map[string]bool {
	out := make(map[string]bool)
	for _, p := range st.Predicates() {
		st.Match(rdf.Term{}, p, rdf.Term{}, func(tr rdf.Triple) bool {
			if tr.O.IsLiteral() {
				out[p.Value] = true
				return false
			}
			return true
		})
	}
	return out
}

// joinsThroughLiteral reports whether a query binds a variable as the
// object of a predicate with literal values and also uses it as a
// subject. Evaluating such a join, the federation ships the member a
// pattern with a literal in subject position, which the member rejects
// as a parse error, so /run fails with HTTP 400 instead of answering.
// That is a defect of the federation, not of the query; the benchmark
// sets these plans aside so that no op of a run fails, and reports how
// many it set aside.
func joinsThroughLiteral(q *sparql.Query, litPreds map[string]bool) bool {
	objOfLiteral := make(map[string]bool)
	for _, p := range q.Where {
		if p.O.IsVar() && !p.P.IsVar() && litPreds[p.P.Term.Value] {
			objOfLiteral[p.O.Var] = true
		}
	}
	for _, p := range q.Where {
		if p.S.IsVar() && objOfLiteral[p.S.Var] {
			return true
		}
	}
	return false
}

// runStreamLen is how many run-repair ops a run generates; the stream
// wraps around if a run ever outpaces it.
const runStreamLen = 4000

// runRepair is the QSM workload: users who click "Run" and wait, so a
// closed loop. It runs pum's Suggest and the federation; new plans also
// run the member hop (endpoint.Client wire, Local, sparql, store), which
// repeated plans skip once the federation's pattern cache holds them.
type runRepair struct {
	ref      *reference
	ops      []runOp
	from, to int // the window's op indexes
	// setAside is the share of generated plans left out of the stream
	// because they join through a literal (see joinsThroughLiteral).
	setAside float64

	execMs, suggestMs []float64 // timed while computing references
}

func newRunRepair(opts options, ref *reference) (*runRepair, error) {
	templates := runTemplates(ref.store)
	plans := runPlans(opts.seed, runStreamLen, templates)
	ops, setAside, err := buildQueries(plans, ref.op, ref.store)
	if err != nil {
		return nil, err
	}
	share := ratio(float64(setAside), float64(len(plans)))
	fmt.Printf("run-repair: %d of %d generated plans (%.4f) set aside: they join through a literal, which the federation sends to the member in subject position (HTTP 400)\n",
		setAside, len(plans), share)
	return &runRepair{ref: ref, ops: ops, setAside: share}, nil
}

func (r *runRepair) opDigest(seed int64) string {
	d := newDigest()
	for _, o := range runPlans(seed, digestOps, runTemplates(r.ref.store)) {
		d.add(fmt.Sprint(o.warm), o.input)
	}
	return d.sum()
}

func (r *runRepair) next(i int) op { return runRequest(r.ops[i%len(r.ops)].query) }

func (r *runRepair) drive(ctx context.Context, m *measurement) error {
	// The repeated plans are warm by definition: send each once first.
	sent := make(map[string]bool)
	for _, o := range r.ops {
		if o.warm && !sent[o.query] {
			sent[o.query] = true
			m.warm.do(ctx, runRequest(o.query), time.Now())
		}
	}
	r.from, _ = m.warm.closedLoop(ctx, warmup, r.next, 0)
	return m.measure(func() time.Duration {
		var el time.Duration
		r.to, el = m.window.closedLoop(ctx, m.windowSeconds(), r.next, r.from)
		return el
	})
}

func (r *runRepair) reference(ctx context.Context, query string) (string, error) {
	return runRefCanon(ctx, r.ref.client, query, &r.execMs, &r.suggestMs)
}

func (r *runRepair) canon(_ string, body []byte) (string, error) { return runBodyCanon(body) }

// extraFailures has nothing to add; it reports the latency of repeated
// and new queries apart, since the window mixes the two.
func (r *runRepair) extraFailures(m *measurement) int {
	warm := make(map[string]bool)
	for _, o := range r.ops {
		if o.warm {
			warm[o.query] = true
		}
	}
	var hot, cold []float64
	for _, o := range m.window.col.outcomes {
		if o.err == nil && warm[o.key] {
			hot = append(hot, ms(o.latency))
		} else if o.err == nil {
			cold = append(cold, ms(o.latency))
		}
	}
	fmt.Printf("run-repair: %d repeated-plan ops p50 %.3f ms, %d new-plan ops p50 %.3f ms\n",
		len(hot), median(hot), len(cold), median(cold))
	return 0
}

// repeatShare is the share of window ops whose query the server had
// already answered.
func (r *runRepair) repeatShare() float64 {
	seen := make(map[string]bool)
	for _, o := range r.ops {
		if o.warm {
			seen[o.query] = true
		}
	}
	for i := 0; i < r.from; i++ {
		seen[r.ops[i%len(r.ops)].query] = true
	}
	rep := 0
	for i := r.from; i < r.to; i++ {
		q := r.ops[i%len(r.ops)].query
		if seen[q] {
			rep++
		}
		seen[q] = true
	}
	return ratio(float64(rep), float64(r.to-r.from))
}

// layers replays the window's distinct queries through the QSM's parts.
func (r *runRepair) layers(ctx context.Context, m *measurement, out map[string]float64) {
	out["run.repeat_share"] = r.repeatShare()
	out["run.set_aside_share"] = r.setAside
	out["pum.execute_ms"] = median(r.execMs)
	out["pum.suggest_ms"] = median(r.suggestMs)
	p := r.ref.pum
	cfg := p.Config()
	var alt, sim []float64
	var relaxMs, kept, ran float64
	seen := make(map[string]bool)
	for i := r.from; i < r.to && len(seen) < maxReplay/10; i++ {
		qs := r.ops[i%len(r.ops)].query
		if seen[qs] {
			continue
		}
		seen[qs] = true
		q, err := sparql.Parse(qs)
		if err != nil {
			continue
		}
		predCands, litCands := 0, 0
		t0 := time.Now()
		for _, pat := range q.Where {
			if !pat.P.IsVar() {
				predCands += len(p.AlternativePredicates(bootstrap.DisplayName(pat.P.Term)))
			}
		}
		alt = append(alt, us(time.Since(t0)))
		var litAlts []pum.Suggestion
		t1 := time.Now()
		for ti, pat := range q.Where {
			if pat.O.IsVar() || !pat.O.Term.IsLiteral() {
				continue
			}
			n := len([]rune(pat.O.Term.Value))
			for _, mt := range p.Cache().Bins.SearchSimilar(pat.O.Term.Value, n-cfg.Alpha, n+cfg.Beta, cfg.Workers, cfg.Theta, cfg.Measure) {
				litAlts = append(litAlts, pum.Suggestion{Kind: pum.AltLiteral, TripleIndex: ti, New: mt.Literal, Score: mt.Score})
			}
		}
		sim = append(sim, us(time.Since(t1)))
		litCands = len(litAlts)
		t2 := time.Now()
		_, _ = p.Relax(ctx, q, litAlts)
		relaxMs += ms(time.Since(t2))
		sugs, err := p.Suggest(ctx, q)
		if err != nil {
			continue
		}
		for _, s := range sugs {
			if s.Kind != pum.Relaxation {
				kept++
			}
		}
		ran += float64(min(predCands, cfg.MaxCandidates) + min(litCands, cfg.MaxCandidates))
	}
	out["pum.altpred_us"] = median(alt)
	out["bins.similar_us"] = median(sim)
	// A mean: most plans hold fewer than two literals, so Relax returns
	// at once and a median would read that instead of the relaxations.
	out["steiner.relax_ms"] = ratio(relaxMs, float64(len(seen)))
	out["pum.prefetch_yield"] = ratio(kept, ran)
}
