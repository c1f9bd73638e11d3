package store

import (
	"math"
	"sort"

	"sapphire/internal/rdf"
)

// rankTable is a point-in-time order statistic over interned terms: for
// every ID labeled at build time, label(id) is a uint64 whose numeric
// order equals the terms' order, so the cross-shard merge can decide
// most comparisons with one integer compare instead of a string walk.
// Labels are multiples of an even stride; the low bit tags numeric
// literals (see orderLabel), which leaves label order untouched.
// Unlabeled IDs (interned after the table was built, or sitting in a
// dictionary shard's in-flight range) report label 0, and comparisons
// touching them fall back to rdf.Term.CompareTo — the table is a pure
// accelerator, never a source of truth.
//
// A table is immutable once published: each rebuild fills a fresh flat
// label array (indexed by ID; the small holes of partially used ranges
// just hold zeroes) and swaps the dict's table pointer, so readers that
// captured a table keep comparing against one consistent labeling for
// the whole merge. Labels from different tables are never mixed (a
// merger caches the table once), which is what makes full relabeling on
// rebuild safe.
type rankTable struct {
	labels []uint64
}

// label returns id's order label, or 0 when id is unlabeled (or t nil).
func (t *rankTable) label(id ID) uint64 {
	if t != nil && int(id) < len(t.labels) {
		return t.labels[id]
	}
	return 0
}

// orderLabel is label with numeric literals reported as unlabeled: the
// evaluator's ORDER BY comparator ranks those by value, not by term
// order, so only the labels of non-numeric terms may stand in for it.
func (t *rankTable) orderLabel(id ID) uint64 {
	if l := t.label(id); l&1 == 0 {
		return l
	}
	return 0
}

// newRankTable labels order (a term-sorted ID list) evenly over the
// uint64 range, 0 staying "unlabeled", and tags numeric literals.
func newRankTable(w ID, order []ID, tv termView) *rankTable {
	nt := &rankTable{labels: make([]uint64, w)}
	stride := (math.MaxUint64 / uint64(len(order)+1)) &^ 1
	for k, id := range order {
		l := uint64(k+1) * stride
		if _, numeric := tv.atPtr(id).NumericValue(); numeric {
			l |= 1
		}
		nt.labels[id] = l
	}
	return nt
}

// rankMinTerms is the interned-term floor below which no rank table is
// built: small stores merge fast enough on string compares.
const rankMinTerms = 4096

// maybeBuildRanks kicks off a background rank rebuild when the labeled
// share of the ID space has decayed below half. It is called on the
// multi-shard wildcard read paths (the only consumers of labels) and
// costs two atomic loads when there is nothing to do. The build runs in
// one goroutine at a time; readers keep serving with the previous table
// (or string compares) until the new one is published.
func (d *dict) maybeBuildRanks() {
	total := d.terms.Load()
	if total < rankMinTerms || total < 2*d.labeled.Load() {
		return
	}
	if !d.ranksBuilding.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.ranksBuilding.Store(false)
		d.buildRanks()
	}()
}

// buildRanks computes and publishes a fresh rank table. Amortization:
// each build sorts only the terms interned since the previous build and
// merges them with the previous build's order list, so across a store's
// lifetime every term is sorted once and participates in O(1) merges
// per doubling of the dictionary.
//
// Safety of the term scan: slots below the watermark that lie outside
// every dictionary shard's in-flight [next, end) range were fully
// written before that shard's mutex was released — acquiring each
// shard's lock while reading its range gives the happens-before edge —
// and ranges claimed after the watermark was read start at or above it.
// In-flight slots are simply skipped; their terms get labeled by a
// later build.
func (d *dict) buildRanks() {
	d.rankMu.Lock()
	defer d.rankMu.Unlock()
	w := d.next.Load()
	tv := d.view()
	old := d.ranks.Load()
	type window struct{ lo, hi ID }
	wins := make([]window, 0, len(d.shards))
	for i := range d.shards {
		ds := &d.shards[i]
		ds.mu.RLock()
		if ds.next < ds.end {
			wins = append(wins, window{ds.next, ds.end})
		}
		ds.mu.RUnlock()
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].lo < wins[j].lo })
	// Collect the IDs this build adds: assigned, not yet labeled, and
	// not in a shard's in-flight range. The scan walks the watermark
	// once, skipping each in-flight window wholesale (the windows are
	// sorted and the scan is monotone, so a cursor suffices).
	var fresh []ID
	wi := 0
	for id := ID(1); id < w; id++ {
		for wi < len(wins) && id >= wins[wi].hi {
			wi++
		}
		if wi < len(wins) && id >= wins[wi].lo {
			id = wins[wi].hi - 1 // loop increment lands on wins[wi].hi
			continue
		}
		if old.label(id) != 0 {
			continue
		}
		if tv.atPtr(id).Kind == rdf.KindInvalid {
			continue
		}
		fresh = append(fresh, id)
	}
	if len(fresh) == 0 && old != nil {
		return
	}
	sort.Slice(fresh, func(i, j int) bool {
		return tv.atPtr(fresh[i]).CompareTo(tv.atPtr(fresh[j])) < 0
	})
	// Merge the previous order list (already term-sorted) with the
	// fresh IDs into the new total order.
	merged := make([]ID, 0, len(d.rankOrder)+len(fresh))
	i, j := 0, 0
	for i < len(d.rankOrder) && j < len(fresh) {
		if tv.atPtr(d.rankOrder[i]).CompareTo(tv.atPtr(fresh[j])) < 0 {
			merged = append(merged, d.rankOrder[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, d.rankOrder[i:]...)
	merged = append(merged, fresh[j:]...)

	d.rankOrder = merged
	d.ranks.Store(newRankTable(w, merged, tv))
	d.labeled.Store(ID(len(merged)))
}
