package store

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"sapphire/internal/rdf"
)

// ID is a dense dictionary identifier for an interned rdf.Term. IDs are
// allocated from one global 32-bit space; the zero ID is reserved as the
// Wildcard sentinel so that ID-level pattern matching mirrors the
// zero-Term wildcard convention of the Term-level API. Since the
// dictionary was sharded, IDs are no longer strictly first-seen dense:
// each dictionary shard assigns from its own claimed range of the global
// space (see idRangeSize), so the live ID set can contain small holes —
// at most one partially used range per dictionary shard. Nothing in the
// store depends on density; iteration order everywhere is term order,
// never ID order.
//
// ID is an alias (not a defined type) so callers outside this package can
// use plain uint32 values without conversions — the sparql evaluator's
// IDGraph fast path relies on that.
type ID = uint32

// Wildcard is the ID-level wildcard: MatchIDs and CountIDs treat it the
// way Match treats a zero rdf.Term.
const Wildcard ID = 0

const (
	// chunkShift/chunkSize/chunkMask describe the ID→term spine geometry:
	// terms live in fixed-size chunks so the mapping can grow without ever
	// moving an element — concurrent interners on different dictionary
	// shards write into disjoint slots of stable chunks, and lock-free
	// readers index whatever spine snapshot they hold.
	chunkShift = 12
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// idRangeSize is how many consecutive IDs a dictionary shard claims
	// from the global allocator at a time. Larger ranges mean fewer trips
	// to the shared counter but bigger potential holes in the ID space
	// (at most idRangeSize-1 unused slots per dictionary shard).
	idRangeSize = 256

	// DefaultDictShards is the term-dictionary shard count NewSharded
	// uses. Interning distinct terms contends only within a shard, so
	// this bounds dictionary lock contention for write-heavy loads; 16
	// covers typical core counts while keeping the per-store footprint
	// (16 small maps) negligible.
	DefaultDictShards = 16

	// maxDictShards caps the dictionary shard count (and keeps the
	// power-of-two mask cheap to compute).
	maxDictShards = 256
)

// termChunk is one fixed-size block of the ID→term mapping. Chunks are
// allocated zeroed and their slots written exactly once, under the owning
// dictionary shard's lock, before the ID becomes discoverable.
type termChunk [chunkSize]rdf.Term

// dict is the two-way term dictionary, partitioned by term hash into
// independent shards: interning or looking up a term locks only the one
// shard the term hashes to, so concurrent writers interning distinct
// terms (several BulkLoaders staging in parallel, online Adds across
// store shards) no longer serialize on a single dictionary mutex.
//
// The ID→term direction is global: shards allocate IDs in ranges from
// one shared counter and write the terms into a chunked spine published
// through an atomic pointer, so resolution never takes a lock (see
// termView). That lets evaluator callbacks running inside a MatchIDs
// read-lock resolve IDs without re-acquiring any mutex, and lets
// per-shard index maintenance compare terms without racing concurrent
// interning.
//
// Publication contract: a term's chunk slot is fully written, under its
// dictionary shard's lock, before the ID is stored in the shard's intern
// map — i.e. before any caller can learn the ID. Every path that hands
// an ID to a reader does so through some synchronizing edge (the dict
// shard's own mutex for Lookup, a store shard's mutex for IDs read out
// of an index), so by the time a reader resolves an ID, the spine
// coverage and the slot contents it needs are visible. Chunk slots are
// never rewritten, and spine growth copies only the chunk pointers
// (never element data), so no concurrent write can be lost to a grow.
type dict struct {
	shards []dictShard
	mask   uint32 // len(shards)-1; len is a power of two

	// next is the global ID allocator watermark: the lowest ID no shard
	// has claimed yet. Starts at 1; ID 0 backs Wildcard.
	next atomic.Uint32

	// terms counts assigned IDs — the watermark minus the holes of
	// claimed-but-unassigned ranges. The rank-build trigger compares
	// against this, not the watermark: on a default 16-shard dictionary
	// the watermark jumps to 4096 after a handful of interns, and
	// triggering on it would spawn futile rebuilds for small stores
	// forever (every build would relabel the same few terms and never
	// converge on the watermark).
	terms atomic.Uint32

	// spine is the published chunk-pointer table. Grown (copied) under
	// spineMu; readers load it atomically and index it without locks.
	spineMu sync.Mutex
	spine   atomic.Pointer[[]*termChunk]

	// ranks is the published per-ID order statistic (see rankTable):
	// rebuilt in the background when the labeled share of the ID space
	// halves, consumed lock-free by the cross-shard merge. rankMu
	// serializes builds; rankOrder is the previous build's term-sorted
	// ID list (builder-owned, guarded by rankMu); labeled counts it.
	rankMu        sync.Mutex
	ranks         atomic.Pointer[rankTable]
	ranksBuilding atomic.Bool
	labeled       atomic.Uint32
	rankOrder     []ID

	// base is the term-sorted ID list a snapshot restore installs
	// instead of populating the per-shard intern maps (see
	// dict.restore). Immutable once set, and set only before the store
	// is published, so it is read without locks. Empty for stores that
	// were never restored.
	base []ID

	seed maphash.Seed
}

// dictShard is one hash partition of the intern direction. The padding
// keeps hot shard headers on separate cache lines.
type dictShard struct {
	mu  sync.RWMutex
	ids map[rdf.Term]ID
	// [next, end) is the shard's currently claimed, still unassigned
	// slice of the global ID space.
	next, end ID

	_ [64]byte
}

// clampDictShards rounds n to the nearest power of two in
// [1, maxDictShards] (values < 1 become DefaultDictShards).
func clampDictShards(n int) int {
	if n < 1 {
		n = DefaultDictShards
	}
	if n > maxDictShards {
		n = maxDictShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newDict(shards int) *dict {
	shards = clampDictShards(shards)
	d := &dict{
		shards: make([]dictShard, shards),
		mask:   uint32(shards - 1),
		seed:   maphash.MakeSeed(),
	}
	for i := range d.shards {
		d.shards[i].ids = make(map[rdf.Term]ID)
	}
	d.next.Store(1) // ID 0 is the Wildcard sentinel
	spine := []*termChunk{new(termChunk)}
	d.spine.Store(&spine)
	return d
}

// shardIndexFor routes a term to its dictionary shard by hashing the
// lexical value (plus the kind, so an IRI and a literal with the same
// spelling decorrelate).
func (d *dict) shardIndexFor(t rdf.Term) int {
	if d.mask == 0 {
		return 0
	}
	h := maphash.String(d.seed, t.Value) + uint64(t.Kind)
	return int(uint32(h) & d.mask)
}

func (d *dict) shardFor(t rdf.Term) *dictShard {
	return &d.shards[d.shardIndexFor(t)]
}

// intern returns the ID for t, assigning a fresh ID from the shard's
// claimed range on first sight. The hit path (predicates and types
// repeat on every triple) probes under the shard's read lock first, so
// interning already-known terms never serializes concurrent writers.
func (d *dict) intern(t rdf.Term) ID {
	ds := d.shardFor(t)
	ds.mu.RLock()
	id, ok := ds.ids[t]
	ds.mu.RUnlock()
	if ok {
		return id
	}
	ds.mu.Lock()
	id = d.internLocked(ds, t)
	ds.mu.Unlock()
	return id
}

// internTriple interns all three positions. The positions usually hash
// to different dictionary shards, so each is interned independently.
func (d *dict) internTriple(tr rdf.Triple) (si, pi, oi ID) {
	return d.intern(tr.S), d.intern(tr.P), d.intern(tr.O)
}

// internLocked assigns (or returns) t's ID. Caller must hold ds.mu. The
// term is written into its spine slot before the intern-map store that
// makes the ID discoverable — see the dict type comment for why that
// ordering makes lock-free resolution safe.
func (d *dict) internLocked(ds *dictShard, t rdf.Term) ID {
	if id, ok := ds.ids[t]; ok {
		return id
	}
	if id, ok := d.baseLookup(&t); ok {
		// A restored term seen for the first time since the restore:
		// memoize it so subsequent interns hit the shard map's read-lock
		// fast path. Already counted in terms at restore time.
		ds.ids[t] = id
		return id
	}
	if ds.next == ds.end {
		d.claimRange(ds)
	}
	id := ds.next
	ds.next++
	spine := *d.spine.Load()
	spine[id>>chunkShift][id&chunkMask] = t
	ds.ids[t] = id
	d.terms.Add(1)
	return id
}

// claimRange grabs the next idRangeSize IDs from the global allocator
// for ds and guarantees the spine covers them before any of them can be
// assigned. Caller must hold ds.mu; the global counter is atomic and the
// spine grow takes only spineMu, so two shards claiming concurrently
// never block each other beyond the short spine copy.
func (d *dict) claimRange(ds *dictShard) {
	end := d.next.Add(idRangeSize)
	d.ensureCovers(end - 1)
	ds.next, ds.end = end-idRangeSize, end
}

// ensureCovers grows the published spine until the chunk holding id
// exists. Only chunk pointers are copied; chunk contents stay in place,
// so writers mid-flight into existing chunks lose nothing.
func (d *dict) ensureCovers(id ID) {
	want := int(id>>chunkShift) + 1
	if len(*d.spine.Load()) >= want {
		return
	}
	d.spineMu.Lock()
	if cur := *d.spine.Load(); len(cur) < want {
		next := make([]*termChunk, want)
		copy(next, cur)
		for i := len(cur); i < want; i++ {
			next[i] = new(termChunk)
		}
		d.spine.Store(&next)
	}
	d.spineMu.Unlock()
}

// internAll interns ts[i] into ids[i] for every i, acquiring each
// dictionary shard's lock at most once per call instead of once per
// term — the batched path BulkLoader stages through. buckets is reusable
// scratch (position lists per dictionary shard); the possibly regrown
// scratch is returned for the caller to keep.
func (d *dict) internAll(ts []rdf.Term, ids []ID, buckets [][]int32) [][]int32 {
	if d.mask == 0 {
		ds := &d.shards[0]
		ds.mu.Lock()
		for i, t := range ts {
			ids[i] = d.internLocked(ds, t)
		}
		ds.mu.Unlock()
		return buckets
	}
	if cap(buckets) < len(d.shards) {
		buckets = make([][]int32, len(d.shards))
	} else {
		buckets = buckets[:len(d.shards)]
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
	}
	for i, t := range ts {
		si := d.shardIndexFor(t)
		buckets[si] = append(buckets[si], int32(i))
	}
	for si := range buckets {
		if len(buckets[si]) == 0 {
			continue
		}
		ds := &d.shards[si]
		ds.mu.Lock()
		for _, i := range buckets[si] {
			ids[i] = d.internLocked(ds, ts[i])
		}
		ds.mu.Unlock()
	}
	return buckets
}

// lookup returns the ID for t without interning, locking only t's
// dictionary shard. Terms carried over by a snapshot restore that have
// not been re-interned since live only in the base list; the map miss
// falls through to the binary search.
func (d *dict) lookup(t rdf.Term) (ID, bool) {
	ds := d.shardFor(t)
	ds.mu.RLock()
	id, ok := ds.ids[t]
	ds.mu.RUnlock()
	if !ok {
		return d.baseLookup(&t)
	}
	return id, ok
}

// baseLookup binary-searches the restored term-sorted base for t,
// resolving candidate IDs through the spine. Lock-free: the base is
// immutable and every ID in it was published (spine slot written)
// before the store existed for callers. ~20 term compares on a restored
// million-term dictionary, and only for terms not yet re-interned —
// intern memoizes hits into the shard maps.
func (d *dict) baseLookup(t *rdf.Term) (ID, bool) {
	if len(d.base) == 0 {
		return 0, false
	}
	tv := d.view()
	i := sort.Search(len(d.base), func(i int) bool {
		return tv.atPtr(d.base[i]).CompareTo(t) >= 0
	})
	if i < len(d.base) {
		if id := d.base[i]; tv.atPtr(id).CompareTo(t) == 0 {
			return id, true
		}
	}
	return 0, false
}

// view returns the current lock-free ID→term mapping. Any ID published
// before the view was taken (through any synchronizing edge) resolves
// correctly against it; unpublished or out-of-range IDs resolve to the
// zero Term.
func (d *dict) view() termView {
	return termView{chunks: *d.spine.Load()}
}

// termAt resolves one ID against the current spine without locking. Safe
// to call concurrently with interning and from within Match/MatchIDs
// callbacks.
func (d *dict) termAt(id ID) rdf.Term {
	return d.view().at(id)
}

// termView is a point-in-time handle on the ID→term mapping: an
// immutable snapshot of the chunk-pointer spine. It replaces the flat
// []rdf.Term snapshot the pre-sharding dictionary published — chunked
// because concurrent interners must be able to write new terms without
// ever relocating slots a published view still points at.
type termView struct {
	chunks []*termChunk
}

// at resolves an ID. IDs beyond the view's coverage (never-published, or
// published after the view was taken without a synchronizing edge) and
// the Wildcard resolve to the zero Term.
func (v termView) at(id ID) rdf.Term {
	if ci := int(id >> chunkShift); ci < len(v.chunks) {
		return v.chunks[ci][id&chunkMask]
	}
	return rdf.Term{}
}

// zeroTerm backs atPtr's out-of-range result.
var zeroTerm rdf.Term

// atPtr resolves an ID to a pointer into its chunk slot, avoiding the
// 56-byte copy of at. Slots are written exactly once before their ID is
// published and never rewritten, so the pointee is immutable for any ID
// the caller legitimately holds. Callers must not write through it.
func (v termView) atPtr(id ID) *rdf.Term {
	if ci := int(id >> chunkShift); ci < len(v.chunks) {
		return &v.chunks[ci][id&chunkMask]
	}
	return &zeroTerm
}

// index is one permutation of a shard's triple indexes (SPO, POS, or
// OSP): a level-one key → entry map plus the level-one keys maintained
// in term order, so wildcard iteration never sorts. Level one keeps the
// map probe per key (a level-one insert memmoves the keys slice, and a
// parallel pointer slice would triple the bytes every online Add
// shifts); level two instead pairs its keys with a parallel inner-list
// pointer slice, because that is the level the cross-shard merge and
// the wildcard loops walk key-by-key.
//
// sortedInner additionally keeps the innermost ID lists term-sorted
// (the POS permutation sets it). That is what makes the cross-shard
// wildcard-subject fan-out a pure k-way merge: subjects are partitioned
// across shards, so per-shard subject lists for a (predicate, object)
// pair are disjoint sorted runs that merge deterministically in term
// order — no global arrival clock required. SPO and OSP leave their
// innermost lists in insertion order; their inner levels never span
// shards (the level that varies is the subject, which picks the shard).
type index struct {
	m           map[ID]*entry
	keys        []ID // level-one keys, term-sorted
	sortedInner bool
}

// entry is one level-one slot of an index: level-two key → level-three
// ID list (boxed, so the map and the key-parallel lists slice share one
// stable location), the level-two keys in term order with the parallel
// list pointers, and the total number of triples underneath (giving
// O(1) per-key cardinalities).
type entry struct {
	m     map[ID]*[]ID
	keys  []ID    // level-two keys, term-sorted
	lists []*[]ID // lists[i] backs keys[i]
	total int
}

// get returns the inner ID list for level-two key b (nil when absent).
func (e *entry) get(b ID) []ID {
	if l := e.m[b]; l != nil {
		return *l
	}
	return nil
}

func newIndex(sortedInner bool) index {
	return index{m: make(map[ID]*entry), sortedInner: sortedInner}
}

// add records the (a, b, c) path in the index. The caller guarantees the
// triple is new (the shard dedups via its present set), so c is appended
// (or, with sortedInner, insertion-sorted) unconditionally. Key slices
// and their parallel value slices are maintained sorted by term order
// with a binary-search insertion: Add is the cold path, Match the hot
// one. tv is a dictionary view covering every ID involved.
func (x *index) add(tv termView, a, b, c ID) {
	e := x.m[a]
	if e == nil {
		e = &entry{m: make(map[ID]*[]ID)}
		x.m[a] = e
		x.keys = insertSorted(tv, x.keys, a)
	}
	lst := e.m[b]
	if lst == nil {
		lst = new([]ID)
		e.m[b] = lst
		i := searchTerm(tv, e.keys, b)
		e.keys = insertAt(e.keys, i, b)
		e.lists = insertAt(e.lists, i, lst)
	}
	if x.sortedInner {
		*lst = insertSorted(tv, *lst, c)
	} else {
		*lst = append(*lst, c)
	}
	e.total++
}

// searchTerm returns the term-order insertion position for id in keys.
func searchTerm(tv termView, keys []ID, id ID) int {
	t := tv.atPtr(id)
	return sort.Search(len(keys), func(i int) bool {
		return tv.atPtr(keys[i]).CompareTo(t) >= 0
	})
}

// insertAt inserts v at position i, shifting the tail.
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// insertSorted inserts id into keys keeping term order.
func insertSorted(tv termView, keys []ID, id ID) []ID {
	return insertAt(keys, searchTerm(tv, keys, id), id)
}
