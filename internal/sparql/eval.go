package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"sapphire/internal/rdf"
)

// Graph is the triple source the evaluator runs against. The in-memory
// store satisfies it directly; endpoints and federations adapt to it.
type Graph interface {
	// Match streams triples matching the pattern (zero terms are
	// wildcards) until fn returns false.
	Match(s, p, o rdf.Term, fn func(rdf.Triple) bool)
	// CardinalityEstimate returns an upper bound on matching triples,
	// used for greedy join ordering.
	CardinalityEstimate(s, p, o rdf.Term) int
}

// IDGraph is the store fast path: a dictionary-encoded Graph (the
// in-memory store) that the evaluator scans in ID space, joining over
// dense uint32 term IDs — integer map probes instead of 4-field struct
// hashing — and resolving IDs back to terms only when rows leave the
// pipeline. Every evaluation pins the graph's read locks once and scans
// through the pinned methods throughout; see doc.go for the ID
// contract. Graphs without it (remote endpoints, federations) take the
// Term-level path through a query-local dictionary instead.
type IDGraph interface {
	Graph
	// Lookup returns the dictionary ID of a term, or false if the term
	// does not occur in the graph. It takes dictionary locks, not the
	// pinned read locks, so it stays callable while pinned.
	Lookup(t rdf.Term) (uint32, bool)
	// ResolveID returns the term for an ID (zero Term for unknown IDs).
	// It is lock-free, so terms can materialize mid-scan.
	ResolveID(id uint32) rdf.Term
	// PinRead acquires the graph's read locks until release is called.
	PinRead() (release func())
	// MatchIDsPinned streams matching triples as ID tuples under a
	// PinRead session; zero IDs are wildcards. It takes no locks and may
	// be called from inside its own callbacks. Iteration stops early if
	// fn returns false.
	MatchIDsPinned(s, p, o uint32, fn func(s, p, o uint32) bool)
	// ScanMorselsPinned streams the same matches in MatchIDsPinned order,
	// batched into morsels of up to size triples, under a PinRead
	// session. Each batch is the callee's to retain.
	ScanMorselsPinned(s, p, o uint32, size int, fn func(batch [][3]uint32) bool)
	// OrderLabels reports per-ID order labels (nil: none yet). When two
	// IDs both have nonzero labels, label order equals the ORDER BY
	// comparator's order on their terms; 0 means "compare the terms",
	// and is what numeric literals (ordered by value) and IDs newer than
	// the label table report. The ORDER BY operators compare labels
	// first, so a page over labeled keys resolves only its k survivors.
	OrderLabels() (label func(id uint32) uint64)
}

// Binding maps variable names to terms for one solution row.
type Binding map[string]rdf.Term

// Results is the outcome of query evaluation.
type Results struct {
	// Vars is the projection list in order.
	Vars []string
	// Rows are the solutions; each maps every projected var (missing
	// entries mean unbound, which cannot happen in this subset).
	Rows []Binding
}

// Sorted returns the rows serialized deterministically, for tests.
func (r *Results) Sorted() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(r.Vars))
		for j, v := range r.Vars {
			parts[j] = row[v].String()
		}
		out[i] = strings.Join(parts, " | ")
	}
	sort.Strings(out)
	return out
}

// Budget is invoked for every intermediate row the evaluator produces.
// Simulated endpoints use it to enforce timeouts and result limits the
// way public SPARQL endpoints do; returning an error aborts evaluation.
type Budget func() error

// Options configures evaluation.
type Options struct {
	// Budget, if non-nil, is called once per intermediate row. With
	// Workers > 1 it may be called from several goroutines; the
	// evaluator serializes the calls, so the callback itself needs no
	// locking, but it must not assume any particular interleaving of
	// rows.
	Budget Budget

	// Workers is the intra-query parallelism degree: the number of
	// goroutines that execute the join chain over morsels of the
	// driving scan (see parallel.go). 0 selects the process default
	// (SetDefaultWorkers, itself 1 unless a -parallel flag raised it);
	// values <= 1 evaluate serially. Parallel evaluation requires an
	// IDGraph (the in-memory store) and produces byte-identical
	// results to serial evaluation, row order included.
	Workers int

	// noReorder keeps the textual pattern order instead of the greedy
	// plan — only reachable in-package, to measure what greedy join
	// ordering buys (BenchmarkEvalJoinOrder).
	noReorder bool
}

// budgetFor returns the budget the evaluator should charge: the raw
// callback when evaluation is serial, the mutex-serialized wrapper when
// it is parallel. This accessor is the only sanctioned way to read the
// Budget field at evaluation time — handing the raw callback to
// concurrent workers would race (the pinnedbudget analyzer in
// internal/analysis enforces exactly that).
func (o *Options) budgetFor(parallel bool) Budget {
	if parallel && o.Budget != nil {
		return serializedBudget(o.Budget)
	}
	return o.Budget
}

// defaultWorkers is the process-wide intra-query parallelism default
// used when Options.Workers is 0, settable once at startup via
// SetDefaultWorkers (the serving commands wire their -parallel flag to
// it before taking traffic). It starts at 1: parallelism is opt-in.
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(1) }

// DefaultWorkers returns the worker count Options.Workers == 0 selects.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// SetDefaultWorkers overrides the process default worker count. n < 1
// is clamped to 1 (serial). Intended for startup flag wiring.
func SetDefaultWorkers(n int) {
	if n < 1 {
		n = 1
	}
	defaultWorkers.Store(int32(n))
}

// resolveWorkers maps an Options.Workers value to the effective degree.
func resolveWorkers(w int) int {
	if w == 0 {
		w = DefaultWorkers()
	}
	if w < 1 {
		return 1
	}
	return w
}

// Eval evaluates a query against a graph: it compiles a plan (slot
// layout, greedy join order, filter placement — see plan.go) and streams
// it through the operator pipeline (see iter.go). Rows arrive in plan
// emission order; ORDER BY is the only modifier that reorders them.
func Eval(g Graph, q *Query, opts Options) (*Results, error) {
	pl, err := newPlan(g, q, !opts.noReorder)
	if err != nil {
		return nil, err
	}
	return runPlan(g, pl, opts)
}

// rowKey builds the composite dedup/grouping key for a row in a single
// preallocated builder pass — no per-term String allocations. The bytes
// are identical to joining the terms' N-Triples forms with NUL, keeping
// the deterministic tie-break order stable.
func rowKey(row Binding, vars []string) string {
	var b strings.Builder
	b.Grow(24 * len(vars))
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(0)
		}
		row[v].StringTo(&b)
	}
	return b.String()
}

// projectionNames returns the output column names (aggregate aliases
// included).
func projectionNames(q *Query) []string {
	if q.SelectAll {
		return q.Vars()
	}
	vars := make([]string, 0, len(q.Projections))
	for _, p := range q.Projections {
		vars = append(vars, p.Name())
	}
	return vars
}

// aggregateResults computes grouped aggregates over the full solution
// rows. With no GROUP BY all rows form one group.
func aggregateResults(q *Query, rows []Binding) (*Results, error) {
	groups := make(map[string][]Binding)
	var order []string
	for _, row := range rows {
		key := rowKey(row, q.GroupBy)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	if len(rows) == 0 && len(q.GroupBy) == 0 {
		// Aggregates over the empty solution set yield one row (COUNT=0).
		order = append(order, "")
		groups[""] = nil
	}
	sort.Strings(order)

	vars := make([]string, len(q.Projections))
	for i, p := range q.Projections {
		vars[i] = p.Name()
	}
	res := &Results{Vars: vars}
	for _, key := range order {
		grows := groups[key]
		out := make(Binding, len(q.Projections))
		for _, p := range q.Projections {
			switch p.Agg {
			case AggNone:
				if len(grows) > 0 {
					out[p.Name()] = grows[0][p.Var]
				}
			case AggCount:
				out[p.Name()] = countAgg(grows, p)
			case AggMax, AggMin, AggSum, AggAvg:
				t, err := numericAgg(grows, p)
				if err != nil {
					return nil, err
				}
				out[p.Name()] = t
			}
		}
		res.Rows = append(res.Rows, out)
	}
	if q.Distinct {
		seen := make(map[string]bool, len(res.Rows))
		out := res.Rows[:0]
		names := projectionNames(q)
		for _, row := range res.Rows {
			key := rowKey(row, names)
			if !seen[key] {
				seen[key] = true
				out = append(out, row)
			}
		}
		res.Rows = out
	}
	return res, nil
}

func countAgg(rows []Binding, p Projection) rdf.Term {
	if p.Var == "" {
		return intLit(len(rows))
	}
	if !p.AggDistinct {
		n := 0
		for _, r := range rows {
			if _, ok := r[p.Var]; ok {
				n++
			}
		}
		return intLit(n)
	}
	seen := make(map[rdf.Term]bool)
	for _, r := range rows {
		if t, ok := r[p.Var]; ok {
			seen[t] = true
		}
	}
	return intLit(len(seen))
}

func numericAgg(rows []Binding, p Projection) (rdf.Term, error) {
	var vals []float64
	for _, r := range rows {
		t, ok := r[p.Var]
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(t.Value, 64)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("sparql: %s over non-numeric value %s", p.Agg, t)
		}
		vals = append(vals, f)
	}
	if len(vals) == 0 {
		return intLit(0), nil
	}
	switch p.Agg {
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return floatLit(m), nil
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return floatLit(m), nil
	case AggSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return floatLit(s), nil
	default: // AggAvg
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return floatLit(s / float64(len(vals))), nil
	}
}

func intLit(n int) rdf.Term {
	return rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger)
}

func floatLit(f float64) rdf.Term {
	if f == float64(int64(f)) {
		return rdf.NewTypedLiteral(strconv.FormatInt(int64(f), 10), rdf.XSDInteger)
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'g', -1, 64), rdf.XSDDouble)
}

// orderResults sorts aggregate output rows by the ORDER BY keys (whose
// variables name output columns, unlike the pre-projection ordering of
// plain queries), falling back to a total deterministic row-key order
// when no keys were given — grouped rows come out of a map, so they need
// a canonical order of their own.
func orderResults(q *Query, res *Results) {
	keys := q.OrderBy
	sort.SliceStable(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		for _, k := range keys {
			c := compareTermsForOrder(a[k.Var], b[k.Var])
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		if len(keys) > 0 {
			return false
		}
		return rowKey(a, res.Vars) < rowKey(b, res.Vars)
	})
}

func pageResults(q *Query, res *Results) {
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
}
