package sparql

import (
	"cmp"
	"slices"

	"sapphire/internal/rdf"
)

// ORDER BY.
//
// Every ordering operator — the bounded top-k heap, the full sort and
// the parallel runner's per-morsel pruner — compares rows with one
// comparator, rowOrder.compare: per key, two nonzero rank labels decide
// with one integer compare (IDGraph.OrderLabels guarantees label order
// equals compareTermsForOrder order whenever both labels are nonzero),
// anything else falls back to the key terms, resolved and classified
// once per buffered row. Equal keys break by arrival order, so the
// comparator is a strict total order over buffered rows and any sort
// with it reproduces stable-sort-then-page exactly.

// orderKey is one ORDER BY key term classified for the comparator:
// numeric is set for literals with a numeric value (Term.NumericValue),
// which then order by num.
type orderKey struct {
	t       rdf.Term
	num     float64
	numeric bool
	done    bool // memo slot filled (see rowOrder.key)
}

func newOrderKey(t rdf.Term) orderKey {
	k := orderKey{t: t, done: true}
	k.num, k.numeric = t.NumericValue()
	return k
}

// compare is the ORDER BY order. Among literals, numeric ones come
// first, by value with ties broken by term order, then every other
// literal by term order (SPARQL leaves cross-kind literal order to the
// implementation); everything else is term order. This is a
// lexicographic compare of (kind, numeric class, value, term), so it is
// a strict weak order — transitive even on columns mixing "9", "10" and
// "1a". It differs from term order only when a numeric literal is
// involved.
func (a *orderKey) compare(b *orderKey) int {
	if a.t.IsLiteral() && b.t.IsLiteral() {
		switch {
		case a.numeric && b.numeric:
			if c := cmp.Compare(a.num, b.num); c != 0 {
				return c
			}
		case a.numeric:
			return -1
		case b.numeric:
			return 1
		}
	}
	return a.t.CompareTo(&b.t)
}

// compareTermsForOrder compares two terms in ORDER BY order (see
// orderKey.compare).
func compareTermsForOrder(a, b rdf.Term) int {
	ka, kb := newOrderKey(a), newOrderKey(b)
	return ka.compare(&kb)
}

// rowOrder is a compiled ORDER BY: per key, the row slot (-1 when the
// variable is bound nowhere, so every row ties on it) and direction,
// plus the graph's rank labels (nil: every compare uses terms). It is
// read-only once built, so operators on several goroutines share it.
type rowOrder struct {
	x     *exec
	slots []int
	desc  []bool
	label func(uint32) uint64
}

// orderRow is one buffered row: an owned copy, its per-key labels
// cached at push, its key terms memoized for the fallback compare, and
// its arrival sequence.
type orderRow struct {
	row  []uint32
	lab  []uint64
	keys []orderKey // nil until the first fallback compare
	seq  int
}

// newRowOrder compiles q's ORDER BY keys against the plan's slots.
func newRowOrder(x *exec, keys []OrderKey) rowOrder {
	o := rowOrder{x: x, slots: make([]int, len(keys)), desc: make([]bool, len(keys))}
	for i, k := range keys {
		o.slots[i] = -1
		if s, ok := x.pl.slots[k.Var]; ok {
			o.slots[i] = s
		}
		o.desc[i] = k.Desc
	}
	if x.ig != nil {
		o.label = x.ig.OrderLabels()
	}
	return o
}

// load caches the labels of r's (owned) row and resets its memo; seq
// is the row's arrival sequence.
func (o *rowOrder) load(r *orderRow, seq int) {
	r.seq = seq
	for k, s := range o.slots {
		var l uint64
		if s >= 0 && o.label != nil {
			if id := r.row[s]; id != 0 {
				l = o.label(id)
			}
		}
		r.lab[k] = l
	}
	if r.keys != nil {
		clear(r.keys)
	}
}

// compare orders buffered row a before b (negative) or after
// (positive); it is never 0 for distinct rows.
func (o *rowOrder) compare(a, b *orderRow) int {
	for k, s := range o.slots {
		var c int
		if la, lb := a.lab[k], b.lab[k]; la != 0 && lb != 0 {
			c = cmp.Compare(la, lb) // equal labels: the same ID
		} else if s >= 0 && a.row[s] != b.row[s] {
			c = o.key(a, k).compare(o.key(b, k))
		}
		if c != 0 {
			if o.desc[k] {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a.seq, b.seq)
}

// precedes is compare for a row arriving now, before it is buffered:
// whether row sorts strictly before buffered row b. It looks labels up
// only for the keys it reaches and resolves the arriving row's terms
// without memoizing them, so rejecting a row allocates and copies
// nothing. Arriving last, row loses every full tie.
func (o *rowOrder) precedes(row []uint32, b *orderRow) bool {
	for k, s := range o.slots {
		if s < 0 {
			continue
		}
		id, lb := row[s], b.lab[k]
		var la uint64
		if lb != 0 && id != 0 && o.label != nil {
			la = o.label(id)
		}
		var c int
		switch {
		case la != 0:
			c = cmp.Compare(la, lb) // equal labels: the same ID
		case id != b.row[s]:
			ka := o.keyOf(id)
			c = ka.compare(o.key(b, k))
		}
		if c != 0 {
			if o.desc[k] {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

// key returns r's memoized key term k, resolving it on first use.
func (o *rowOrder) key(r *orderRow, k int) *orderKey {
	if r.keys == nil {
		r.keys = make([]orderKey, len(o.slots))
	}
	e := &r.keys[k]
	if !e.done {
		*e = o.keyOf(r.row[o.slots[k]])
	}
	return e
}

// keyOf resolves and classifies id's term (the zero term for 0, unbound).
func (o *rowOrder) keyOf(id uint32) orderKey {
	var t rdf.Term
	if id != 0 {
		t = o.x.resolveTerm(id)
	}
	return newOrderKey(t)
}

// newRow buffers an owned copy of row with its labels.
func (o *rowOrder) newRow(row []uint32, seq int) *orderRow {
	r := &orderRow{row: append([]uint32(nil), row...), lab: make([]uint64, len(o.slots))}
	o.load(r, seq)
	return r
}

// sortAllOp is the unbounded ORDER BY (no LIMIT, or DISTINCT, which
// must see the ordered stream before paging): buffer every full row,
// sort at flush, then stream downstream (project → distinct → slice).
type sortAllOp struct {
	ord  rowOrder
	rows []*orderRow
	next sink
}

func (op *sortAllOp) push(row []uint32) bool {
	op.rows = append(op.rows, op.ord.newRow(row, len(op.rows)))
	return true
}

func (op *sortAllOp) flush() bool {
	slices.SortFunc(op.rows, op.ord.compare)
	for _, r := range op.rows {
		if !op.next.push(r.row) {
			break
		}
	}
	return op.next.flush()
}

// topKOp is the bounded ORDER BY … LIMIT k path (any number of keys, no
// DISTINCT): a max-heap of the Offset+Limit best rows seen so far. Once
// the heap is full, an arriving row is checked against the root with
// precedes — on labeled keys one label lookup and integer compare per
// key it reaches, no term resolution, no copy — and an admitted row
// overwrites the evicted root's storage in place. Memory is O(k · row
// width) regardless of how many rows stream through.
type topKOp struct {
	ord  rowOrder
	k    int
	heap []*orderRow // max-heap: root = last of the kept rows in output order
	seq  int
	next sink
}

func (op *topKOp) push(row []uint32) bool {
	if op.k == 0 {
		return false
	}
	seq := op.seq
	op.seq++
	if len(op.heap) < op.k {
		op.heap = append(op.heap, op.ord.newRow(row, seq))
		op.siftUp(len(op.heap) - 1)
		return true
	}
	root := op.heap[0]
	if !op.ord.precedes(row, root) {
		return true // at or after the current worst: not in the top k
	}
	copy(root.row, row)
	op.ord.load(root, seq)
	op.siftDown(0)
	return true
}

func (op *topKOp) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if op.ord.compare(op.heap[p], op.heap[i]) > 0 {
			return
		}
		op.heap[p], op.heap[i] = op.heap[i], op.heap[p]
		i = p
	}
}

func (op *topKOp) siftDown(i int) {
	n := len(op.heap)
	for {
		big := i
		if l := 2*i + 1; l < n && op.ord.compare(op.heap[big], op.heap[l]) < 0 {
			big = l
		}
		if r := 2*i + 2; r < n && op.ord.compare(op.heap[big], op.heap[r]) < 0 {
			big = r
		}
		if big == i {
			return
		}
		op.heap[i], op.heap[big] = op.heap[big], op.heap[i]
		i = big
	}
}

func (op *topKOp) flush() bool {
	slices.SortFunc(op.heap, op.ord.compare)
	for _, r := range op.heap {
		if !op.next.push(r.row) {
			break
		}
	}
	return op.next.flush()
}

// takeArrival empties the heap and returns the kept rows in arrival
// order — what the parallel runner's per-morsel pruner hands the
// coordinator, so the global heap's tie-break matches serial. The rows
// stay valid: push overwrites only rows still in the heap.
func (op *topKOp) takeArrival() [][]uint32 {
	h := op.heap
	slices.SortFunc(h, func(a, b *orderRow) int { return cmp.Compare(a.seq, b.seq) })
	rows := make([][]uint32, len(h))
	for i, r := range h {
		rows[i] = r.row
	}
	op.heap, op.seq = h[:0], 0
	return rows
}
