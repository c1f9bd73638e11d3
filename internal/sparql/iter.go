package sparql

import (
	"encoding/binary"

	"sapphire/internal/rdf"
)

// sink is one operator of the streaming pipeline. Rows are uint32 ID
// slices indexed by the plan's slot table, with 0 = unbound. A pushed
// row is borrowed: it is only valid for the duration of the call, so
// operators that buffer rows (sort, top-k) copy them. push returns false
// to stop the upstream producer — either downstream has every row it
// needs (LIMIT early-exit) or the budget errored (exec.err is set).
// flush signals end-of-input so buffering operators can drain.
type sink interface {
	push(row []uint32) bool
	flush() bool
}

// exec is the shared state of one pipeline execution.
type exec struct {
	pl     *plan
	g      Graph
	ig     IDGraph    // non-nil: ID-level scans through the evaluation's pin
	ld     *localDict // non-nil: Term-level scans with query-local interning
	budget Budget
	err    error

	fb Binding // reusable scratch for filter evaluation
}

// tick charges the budget for one intermediate row.
func (x *exec) tick() bool {
	if x.budget == nil {
		return true
	}
	if err := x.budget(); err != nil {
		x.err = err
		return false
	}
	return true
}

// resolveTerm materializes an ID back into a term.
func (x *exec) resolveTerm(id uint32) rdf.Term {
	if x.ig != nil {
		return x.ig.ResolveID(id)
	}
	return x.ld.terms[id]
}

// localDict gives graphs without an ID API (remote endpoints,
// federations) the same ID-space pipeline the store gets: terms interned
// on first sight per query, IDs dense from 1 (0 stays the unbound
// sentinel). Interning is injective, so ID equality is term equality —
// joins, DISTINCT and projection work unchanged.
type localDict struct {
	ids   map[rdf.Term]uint32
	terms []rdf.Term
}

func newLocalDict() *localDict {
	return &localDict{ids: make(map[rdf.Term]uint32, 64), terms: make([]rdf.Term, 1, 65)}
}

func (ld *localDict) intern(t rdf.Term) uint32 {
	if id, ok := ld.ids[t]; ok {
		return id
	}
	id := uint32(len(ld.terms))
	ld.ids[t] = id
	ld.terms = append(ld.terms, t)
	return id
}

// patPos is one compiled pattern position: a row slot for variables, or
// a constant (dictionary ID on the ID path, term on the Term path).
type patPos struct {
	slot int // variable: row column; -1 for constants
	id   uint32
	term rdf.Term
}

// value returns the ID to probe with: the bound slot value (0 = still
// unbound, i.e. wildcard) or the constant.
func (p patPos) value(row []uint32) uint32 {
	if p.slot >= 0 {
		return row[p.slot]
	}
	return p.id
}

type compiledPattern struct {
	s, p, o patPos
	ok      bool // ID path: every constant resolves in the dictionary
}

// compile prepares patterns for execution: constants are looked up in
// the dictionary once (an absent constant makes the pattern matchless),
// variables become row slots.
func (x *exec) compile(pats []Pattern) []compiledPattern {
	out := make([]compiledPattern, len(pats))
	for i, p := range pats {
		cp := compiledPattern{ok: true}
		cp.s = x.compilePos(p.S, &cp.ok)
		cp.p = x.compilePos(p.P, &cp.ok)
		cp.o = x.compilePos(p.O, &cp.ok)
		out[i] = cp
	}
	return out
}

func (x *exec) compilePos(n Node, ok *bool) patPos {
	if n.IsVar() {
		return patPos{slot: x.pl.slots[n.Var]}
	}
	pp := patPos{slot: -1, term: n.Term}
	if x.ig != nil {
		id, found := x.ig.Lookup(n.Term)
		if !found {
			*ok = false
		}
		pp.id = id
	}
	return pp
}

// scanPattern streams the pattern's matches for the current row as ID
// triples, charging the budget per match. Returns false when production
// stopped early (downstream satisfied, or budget error in x.err).
func (x *exec) scanPattern(cp compiledPattern, row []uint32, yield func(ms, mp, mo uint32) bool) bool {
	stopped := false
	if x.ig != nil {
		if !cp.ok {
			return true
		}
		x.ig.MatchIDsPinned(cp.s.value(row), cp.p.value(row), cp.o.value(row), func(ms, mp, mo uint32) bool {
			if !x.tick() || !yield(ms, mp, mo) {
				stopped = true
				return false
			}
			return true
		})
		return !stopped
	}
	termOf := func(p patPos) rdf.Term {
		if p.slot < 0 {
			return p.term
		}
		return x.ld.terms[row[p.slot]]
	}
	x.g.Match(termOf(cp.s), termOf(cp.p), termOf(cp.o), func(tr rdf.Triple) bool {
		if !x.tick() || !yield(x.ld.intern(tr.S), x.ld.intern(tr.P), x.ld.intern(tr.O)) {
			stopped = true
			return false
		}
		return true
	})
	return !stopped
}

// levelBind records which row slots one join level binds: the pattern's
// variable positions that are still unbound when the level starts. It is
// computed once per level entry and shared between the serial DFS
// (runSeq) and the parallel workers, which replay the driving level's
// binding for each morsel triple — a single source of truth for the
// repeated-variable semantics.
type levelBind struct {
	su, pu, ou int // slots this level binds; -1 = constant or already bound
}

// bindSpec computes the level's unbound slots for the current row state.
func bindSpec(cp compiledPattern, row []uint32) levelBind {
	lb := levelBind{su: -1, pu: -1, ou: -1}
	if cp.s.slot >= 0 && row[cp.s.slot] == 0 {
		lb.su = cp.s.slot
	}
	if cp.p.slot >= 0 && row[cp.p.slot] == 0 {
		lb.pu = cp.p.slot
	}
	if cp.o.slot >= 0 && row[cp.o.slot] == 0 {
		lb.ou = cp.o.slot
	}
	return lb
}

// apply writes the match into the row's unbound slots, reporting false
// when a variable repeated within the pattern matched two different
// terms (the row is then untouched).
func (lb levelBind) apply(row []uint32, ms, mp, mo uint32) bool {
	if lb.su >= 0 && ((lb.su == lb.pu && ms != mp) || (lb.su == lb.ou && ms != mo)) {
		return false
	}
	if lb.pu >= 0 && lb.pu == lb.ou && mp != mo {
		return false
	}
	if lb.su >= 0 {
		row[lb.su] = ms
	}
	if lb.pu >= 0 {
		row[lb.pu] = mp
	}
	if lb.ou >= 0 {
		row[lb.ou] = mo
	}
	return true
}

// clear resets the slots apply bound, so sibling matches and later
// pattern groups see a clean row.
func (lb levelBind) clear(row []uint32) {
	if lb.su >= 0 {
		row[lb.su] = 0
	}
	if lb.pu >= 0 {
		row[lb.pu] = 0
	}
	if lb.ou >= 0 {
		row[lb.ou] = 0
	}
}

// runSeq joins pats[lvl:] into row depth-first — an index-nested-loop
// join with no per-level materialization — pushing each completed row to
// out. Level filters (single-group queries only) run the moment their
// level binds, dropping rows before deeper scans ever start. Slots bound
// at a level are reset to 0 on the way out, so sibling matches and later
// pattern groups see a clean row. Returns false when production must
// stop.
func (x *exec) runSeq(pats []compiledPattern, lfilters []*filterStage, lvl int, row []uint32, out sink) bool {
	if lvl == len(pats) {
		return out.push(row)
	}
	cp := pats[lvl]
	lb := bindSpec(cp, row)
	return x.scanPattern(cp, row, func(ms, mp, mo uint32) bool {
		if !lb.apply(row, ms, mp, mo) {
			return true
		}
		keep := true
		if lfilters != nil && lfilters[lvl] != nil {
			keep = x.applyFilterStage(lfilters[lvl], row)
		}
		ok := true
		if keep && x.err == nil {
			ok = x.runSeq(pats, lfilters, lvl+1, row, out)
		}
		lb.clear(row)
		return ok && x.err == nil
	})
}

// filterStage is a compiled batch of FILTER expressions sharing one
// pipeline position, with the variables they read pre-resolved to slots.
type filterStage struct {
	exprs []Expr
	vars  []filterVar
}

type filterVar struct {
	name string
	slot int // -1: the variable has no slot (bound nowhere)
}

func (x *exec) newFilterStage(exprs []Expr) *filterStage {
	if len(exprs) == 0 {
		return nil
	}
	set := make(map[string]bool)
	for _, f := range exprs {
		f.ExprVars(set)
	}
	st := &filterStage{exprs: exprs}
	for v := range set {
		slot, ok := x.pl.slots[v]
		if !ok {
			slot = -1
		}
		st.vars = append(st.vars, filterVar{name: v, slot: slot})
	}
	return st
}

// applyFilterStage reports whether the row survives the stage's filters,
// charging the budget once per row. Evaluation errors fail the filter
// for the row, not the query (SPARQL semantics); a budget error sets
// x.err. The scratch Binding holds only the variables the stage reads.
func (x *exec) applyFilterStage(st *filterStage, row []uint32) bool {
	if !x.tick() {
		return false
	}
	b := x.fb
	if b == nil {
		b = make(Binding, 4)
		x.fb = b
	}
	for k := range b {
		delete(b, k)
	}
	for _, fv := range st.vars {
		if fv.slot >= 0 && row[fv.slot] != 0 {
			b[fv.name] = x.resolveTerm(row[fv.slot])
		}
	}
	for _, f := range st.exprs {
		v, err := f.Eval(b)
		if err != nil {
			return false
		}
		bv, err := v.EffectiveBool()
		if err != nil || !bv {
			return false
		}
	}
	return true
}

// filterOp drops rows that fail its stage.
type filterOp struct {
	x    *exec
	st   *filterStage
	next sink
}

func (op *filterOp) push(row []uint32) bool {
	if !op.x.applyFilterStage(op.st, row) {
		return op.x.err == nil
	}
	return op.next.push(row)
}

func (op *filterOp) flush() bool { return op.next.flush() }

// leftJoinOp implements OPTIONAL: each incoming row is extended with
// every match of the block (bound into the same row buffer — the block's
// free slots are disjoint from the row's bound ones), or forwarded
// unextended when the block has no match.
type leftJoinOp struct {
	x       *exec
	pats    []compiledPattern
	next    sink
	matched bool
}

func (op *leftJoinOp) push(row []uint32) bool {
	op.matched = false
	if !op.x.runSeq(op.pats, nil, 0, row, matchSink{op}) {
		return false
	}
	if !op.matched {
		return op.next.push(row)
	}
	return true
}

func (op *leftJoinOp) flush() bool { return op.next.flush() }

// matchSink marks the enclosing left join matched and forwards.
type matchSink struct{ op *leftJoinOp }

func (m matchSink) push(row []uint32) bool {
	m.op.matched = true
	return m.op.next.push(row)
}

func (m matchSink) flush() bool { return true }

// projectOp narrows full solution rows to the projected columns.
type projectOp struct {
	slots []int // output column -> source slot, -1 = never bound
	buf   []uint32
	next  sink
}

func (op *projectOp) push(row []uint32) bool {
	for i, s := range op.slots {
		if s >= 0 {
			op.buf[i] = row[s]
		} else {
			op.buf[i] = 0
		}
	}
	return op.next.push(op.buf)
}

func (op *projectOp) flush() bool { return op.next.flush() }

// distinctOp deduplicates projected rows by their raw ID bytes — the
// dictionary is injective, so ID-row equality is term-row equality. This
// replaces the old post-hoc N-Triples string keys: 4 bytes per column
// and no term resolution for dropped duplicates.
type distinctOp struct {
	seen map[string]struct{}
	key  []byte
	next sink
}

func (op *distinctOp) push(row []uint32) bool {
	op.key = op.key[:0]
	for _, id := range row {
		op.key = binary.LittleEndian.AppendUint32(op.key, id)
	}
	if _, dup := op.seen[string(op.key)]; dup {
		return true
	}
	op.seen[string(op.key)] = struct{}{}
	return op.next.push(row)
}

func (op *distinctOp) flush() bool { return op.next.flush() }

// sliceOp implements OFFSET/LIMIT with early exit: once the limit is
// satisfied it returns false, stopping every upstream producer — for any
// query shape whose tail reaches this operator streamingly (everything
// except ORDER BY and aggregates, which must see all rows first).
type sliceOp struct {
	skip   int
	remain int // -1 = no limit
	next   sink
}

func (op *sliceOp) push(row []uint32) bool {
	if op.skip > 0 {
		op.skip--
		return true
	}
	if op.remain == 0 {
		return false
	}
	if !op.next.push(row) {
		return false
	}
	if op.remain > 0 {
		op.remain--
		if op.remain == 0 {
			return false
		}
	}
	return true
}

func (op *sliceOp) flush() bool { return op.next.flush() }

// collectOp materializes projected rows into Bindings — the only point
// where the ID path resolves terms for ordinary queries.
type collectOp struct {
	x    *exec
	vars []string
	rows []Binding
}

func (op *collectOp) push(row []uint32) bool {
	nb := make(Binding, len(op.vars))
	for i, v := range op.vars {
		if row[i] != 0 {
			nb[v] = op.x.resolveTerm(row[i])
		}
	}
	op.rows = append(op.rows, nb)
	return true
}

func (op *collectOp) flush() bool { return true }

// tailSpec describes the buffering head of the modifier tail to the
// parallel runner, so each worker can run the equivalent bounded
// operator per morsel: a top-k pruner when the tail is the bounded
// ORDER BY heap, a row cap of skip+limit when every produced row
// reaches the slice unconditionally (no ORDER BY, no DISTINCT, no
// aggregation — projection never drops rows), unbounded otherwise.
type tailSpec struct {
	topK   bool
	k      int
	ord    rowOrder // topK: the heap's comparator (keys, directions, labels)
	rowCap int      // -1 = unbounded
}

// buildTail assembles the modifier tail of the pipeline — ORDER BY
// (top-k heap | full sort) → project → DISTINCT → OFFSET/LIMIT slice
// → collect — and returns its entry sink, the terminal collector, and
// the tailSpec the parallel runner mirrors per morsel. Aggregate
// queries collect full rows directly (their modifiers apply after
// grouping).
func buildTail(x *exec, projVars []string, aggregates bool) (sink, *collectOp, tailSpec) {
	q, pl := x.pl.q, x.pl
	projSlots := make([]int, len(projVars))
	identity := len(projVars) == pl.width()
	for i, v := range projVars {
		if s, ok := pl.slots[v]; ok {
			projSlots[i] = s
		} else {
			projSlots[i] = -1
		}
		if projSlots[i] != i {
			identity = false
		}
	}

	spec := tailSpec{rowCap: -1}
	collect := &collectOp{x: x, vars: projVars}
	var tail sink = collect
	if aggregates {
		return tail, collect, spec
	}
	if q.Offset > 0 || q.Limit >= 0 {
		remain := q.Limit
		if remain < 0 {
			remain = -1
		}
		tail = &sliceOp{skip: q.Offset, remain: remain, next: tail}
		if q.Limit >= 0 && len(q.OrderBy) == 0 && !q.Distinct {
			spec.rowCap = q.Offset + q.Limit
		}
	}
	if q.Distinct {
		tail = &distinctOp{seen: make(map[string]struct{}), next: tail}
	}
	if !identity {
		tail = &projectOp{slots: projSlots, buf: make([]uint32, len(projSlots)), next: tail}
	}
	if len(q.OrderBy) > 0 {
		ord := newRowOrder(x, q.OrderBy)
		if q.Limit >= 0 && !q.Distinct {
			tail = &topKOp{ord: ord, k: q.Offset + q.Limit, next: tail}
			spec.topK, spec.k, spec.ord = true, q.Offset+q.Limit, ord
		} else {
			tail = &sortAllOp{ord: ord, next: tail}
		}
	}
	return tail, collect, spec
}

// buildRowStages wraps tail with the per-row stages that run between
// the base join and the modifier tail: base-stage filters, one left
// join per OPTIONAL block (each followed by its stage filters), and the
// end-stage filters. The serial path builds this once; the parallel
// path builds one per worker (leftJoinOp carries per-row state), all
// sharing x's compiled filter stages via the exec passed in.
func (x *exec) buildRowStages(tail sink) sink {
	pl := x.pl
	chain := tail
	if st := x.newFilterStage(pl.endFilters); st != nil {
		chain = &filterOp{x: x, st: st, next: chain}
	}
	for j := len(pl.optionals) - 1; j >= 0; j-- {
		if st := x.newFilterStage(pl.optFilters[j]); st != nil {
			chain = &filterOp{x: x, st: st, next: chain}
		}
		chain = &leftJoinOp{x: x, pats: x.compile(pl.optionals[j]), next: chain}
	}
	if st := x.newFilterStage(pl.baseFilters); st != nil {
		chain = &filterOp{x: x, st: st, next: chain}
	}
	return chain
}

// levelFilterStages compiles the plan's join-level filters (nil when no
// level has any). The stages are read-only once built, so the parallel
// workers share one set.
func (x *exec) levelFilterStages() []*filterStage {
	if len(x.pl.levelFilters) == 0 {
		return nil
	}
	any := false
	lf := make([]*filterStage, len(x.pl.levelFilters))
	for i, exprs := range x.pl.levelFilters {
		lf[i] = x.newFilterStage(exprs)
		any = any || lf[i] != nil
	}
	if !any {
		return nil
	}
	return lf
}

// scanJoin drives the scan/join stage into tail: morsel-parallel when
// parallel is set and the plan's shape allows it, the serial DFS over
// each pattern group otherwise.
func (x *exec) scanJoin(tail sink, parallel bool, workers int, spec tailSpec) {
	if parallel {
		if pr := newParallelRun(x, workers, spec); pr != nil {
			pr.run(tail)
			return
		}
	}
	chain := x.buildRowStages(tail)
	lf := x.levelFilterStages()
	row := make([]uint32, x.pl.width())
	for _, grp := range x.pl.groups {
		if !x.runSeq(x.compile(grp), lf, 0, row, chain) {
			return
		}
	}
}

// runPlan assembles the operator chain for the plan and drives it:
//
//	scan/join (DFS, level filters inline)
//	  → [left join per OPTIONAL block, its stage filters after it]
//	  → [end-stage filters]
//	  → ORDER BY (top-k heap | full sort) — buffering, pre-projection
//	  → project → DISTINCT (ID hash set) → OFFSET/LIMIT slice → collect
//
// Aggregate queries collect full rows instead of the modifier tail and
// reuse the grouped-aggregation code path unchanged.
//
// With opts.Workers > 1 and an IDGraph, the scan/join stage runs
// morsel-parallel (see parallel.go): workers execute the per-row stages
// over morsels of the driving scan and the coordinator feeds the
// modifier tail in morsel order, so the output is byte-identical to the
// serial pipeline.
func runPlan(g Graph, pl *plan, opts Options) (*Results, error) {
	q := pl.q
	aggregates := q.HasAggregates()
	var projVars []string
	switch {
	case aggregates:
		projVars = pl.varNames
	case q.SelectAll:
		projVars = pl.varNames
	default:
		projVars = make([]string, len(q.Projections))
		for i, p := range q.Projections {
			projVars[i] = p.Var
		}
	}

	// LIMIT 0 can only ever produce the empty result set; answer it at
	// plan time with zero scans, zero budget ticks, and zero locking.
	// (Without this, an ORDER BY tail would build an Offset-sized top-k
	// heap and a plain tail would scan Offset+1 rows, only to emit
	// nothing.) Aggregates keep the full path: their projection names
	// are computed by the aggregation tail.
	if !aggregates && q.Limit == 0 {
		return &Results{Vars: projVars}, nil
	}

	workers := resolveWorkers(opts.Workers)
	ig, fast := g.(IDGraph)
	parallel := workers > 1 && fast
	budget := opts.budgetFor(parallel)

	x := &exec{pl: pl, g: g, budget: budget}
	if fast {
		x.ig = ig
		release := ig.PinRead()
		defer release()
	} else {
		x.ld = newLocalDict()
	}

	tail, collect, spec := buildTail(x, projVars, aggregates)
	// Compiling the patterns looks their constants up under the pin on
	// purpose: every triple in the pinned state had its terms interned
	// before the pin was taken, so a constant the dictionary lacks now
	// matches nothing in what the scans will see.
	//sapphire:allow pinlock IDGraph.Lookup takes dictionary-shard locks, a domain disjoint from the store-shard read locks the pin holds (writers release the dictionary lock before taking a shard lock), so it cannot form a cycle (internal/sparql/doc.go, docs/ARCHITECTURE.md "PinRead")
	x.scanJoin(tail, parallel, workers, spec)
	if x.err != nil {
		return nil, x.err
	}
	tail.flush()
	if x.err != nil {
		return nil, x.err
	}

	if aggregates {
		res, err := aggregateResults(q, collect.rows)
		if err != nil {
			return nil, err
		}
		orderResults(q, res)
		pageResults(q, res)
		return res, nil
	}
	return &Results{Vars: projVars, Rows: collect.rows}, nil
}
