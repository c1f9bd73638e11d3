package store

import (
	"bytes"
	"fmt"
	"testing"

	"sapphire/internal/rdf"
)

func morselFixture(t *testing.T, shards, n int) *Store {
	t.Helper()
	s := NewSharded(shards)
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/T")))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"),
			rdf.NewLiteral(fmt.Sprintf("val %d", i))))
	}
	return s
}

// TestScanMorselsPinnedOrder pins the morsel enumeration contract: for
// every pattern shape and morsel size, the concatenation of the batches
// is exactly the MatchIDs emission order, every batch except the last
// is full, and batches are safe to retain after the callback returns.
func TestScanMorselsPinnedOrder(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s := morselFixture(t, shards, 100)
		patterns := [][3]ID{
			{0, 0, 0}, // full sweep
			{0, mustID(t, s, rdf.NewIRI("http://x/v")), 0},   // predicate-bound
			{mustID(t, s, rdf.NewIRI("http://x/s7")), 0, 0},  // subject-bound
			{0, 0, mustID(t, s, rdf.NewIRI("http://x/T"))},   // object-bound
			{0, 0, mustID(t, s, rdf.NewIRI("http://x/s99"))}, // sparse
		}
		for _, pat := range patterns {
			var want [][3]ID
			s.MatchIDs(pat[0], pat[1], pat[2], func(a, b, c ID) bool {
				want = append(want, [3]ID{a, b, c})
				return true
			})
			for _, size := range []int{1, 3, 64, 1 << 20} {
				var batches [][][3]ID
				release := s.PinRead()
				s.ScanMorselsPinned(pat[0], pat[1], pat[2], size, func(batch [][3]ID) bool {
					batches = append(batches, batch)
					return true
				})
				release()
				var got [][3]ID
				for i, b := range batches {
					if i < len(batches)-1 && len(b) != size {
						t.Fatalf("shards=%d pat=%v size=%d: batch %d has %d triples, want %d (only the last may be short)",
							shards, pat, size, i, len(b), size)
					}
					got = append(got, b...)
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d pat=%v size=%d: %d triples, want %d", shards, pat, size, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("shards=%d pat=%v size=%d: triple %d = %v, want %v (MatchIDs order)",
							shards, pat, size, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestScanMorselsPinnedEarlyStop: returning false stops enumeration —
// no further batches arrive, including the final short batch.
func TestScanMorselsPinnedEarlyStop(t *testing.T) {
	s := morselFixture(t, 4, 100)
	calls := 0
	release := s.PinRead()
	s.ScanMorselsPinned(0, 0, 0, 7, func(batch [][3]ID) bool {
		calls++
		return calls < 3
	})
	release()
	if calls != 3 {
		t.Fatalf("callback ran %d times, want exactly 3 (stop after third)", calls)
	}
}

// TestOrderLabelsNeverZeroForRealTerms is the rank-label audit behind
// the evaluator's ORDER BY label path: it treats label 0 as "compare
// terms", so a real non-numeric term labeled 0 would silently change
// which comparison path runs. The label construction makes 0 impossible
// — labels are (k+1)*stride with stride >= 2, and only numeric literals
// (none here) report 0 — and this test pins that for every ID occurring
// in any triple, across shardings and after incremental growth +
// rebuild.
func TestOrderLabelsNeverZeroForRealTerms(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s := morselFixture(t, shards, 200)
		s.BuildOrderLabels()
		label := s.OrderLabels()
		if label == nil {
			t.Fatal("no rank table after BuildOrderLabels")
		}
		check := func(stage string) {
			seen := map[ID]bool{}
			s.MatchIDs(0, 0, 0, func(a, b, c ID) bool {
				for _, id := range [3]ID{a, b, c} {
					if !seen[id] {
						seen[id] = true
						if label(id) == 0 {
							t.Fatalf("shards=%d %s: term %s (id %d) has rank label 0 — the evaluator would misread it as unlabeled",
								shards, stage, s.ResolveID(id), id)
						}
					}
				}
				return true
			})
			if len(seen) == 0 {
				t.Fatalf("shards=%d %s: no ids enumerated", shards, stage)
			}
		}
		check("initial build")

		// Terms interned after the snapshot legitimately report 0 through
		// the old view; after a rebuild every occurring term labels nonzero
		// again.
		for i := 0; i < 50; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://x/extra%d", i))
			s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"), rdf.NewLiteral(fmt.Sprintf("zzz %d", i))))
		}
		s.BuildOrderLabels()
		label = s.OrderLabels()
		check("after growth + rebuild")
	}
}

// TestOrderLabelsZeroForNumericLiterals pins the label contract the
// evaluator's ORDER BY relies on: numeric literals (which it orders by
// value) report label 0 through OrderLabels, while every other term
// keeps a nonzero label that follows term order — on a rank table from
// a build and on one seeded by a snapshot restore (rankMinTerms terms,
// so the restore seeds one). The raw labels the cross-shard merge reads
// stay nonzero and term-ordered for numeric literals too.
func TestOrderLabelsZeroForNumericLiterals(t *testing.T) {
	s := NewSharded(4)
	for i := 0; i < rankMinTerms; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"), rdf.NewLiteral(fmt.Sprintf("%d", i))))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/w"), rdf.NewLiteral(fmt.Sprintf("%da", i))))
	}
	s.BuildOrderLabels()
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _, err := RestoreSnapshotBytes(buf.Bytes(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"built": s, "restored": restored} {
		label := st.OrderLabels()
		if label == nil {
			t.Fatalf("%s: no rank table", name)
		}
		rt := st.dict.ranks.Load()
		var prev rdf.Term
		var prevRaw uint64
		for _, id := range st.dict.rankOrder {
			term := st.ResolveID(id)
			raw := rt.label(id)
			if raw == 0 || raw <= prevRaw {
				t.Fatalf("%s: raw label of %s is %d after %s's %d — not nonzero and term-ordered", name, term, raw, prev, prevRaw)
			}
			prev, prevRaw = term, raw
			_, numeric := term.NumericValue()
			if got := label(id); (got == 0) != numeric {
				t.Fatalf("%s: order label of %s = %d, want zero exactly for numeric literals", name, term, got)
			}
		}
	}
}

func mustID(t *testing.T, s *Store, term rdf.Term) ID {
	t.Helper()
	id, ok := s.Lookup(term)
	if !ok {
		t.Fatalf("term %s not in dictionary", term)
	}
	return id
}
