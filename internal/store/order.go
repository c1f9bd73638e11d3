package store

// OrderLabels exposes the dictionary's rank table (see rank.go) to the
// query evaluator: the returned function maps an interned ID to its
// uint64 order label. Two nonzero labels compare exactly like the
// evaluator's ORDER BY comparator on the underlying terms; 0 means
// "fall back to a term compare". Numeric literals always report 0,
// because the comparator ranks them by value ("9" < "10") where term
// order would not, and it differs from term order only on pairs with a
// numeric side — so a label compare is exact whenever both sides are
// nonzero. The label view is a point-in-time snapshot — terms interned
// after the call report 0 — and the call itself kicks the usual
// background rebuild when the labeled share has decayed, so steady
// ORDER BY traffic keeps the table fresh without ever blocking a query.
//
// label is nil when no table has been built yet (small stores below the
// rank floor, or a fresh store before its first background build).
func (s *Store) OrderLabels() (label func(id uint32) uint64) {
	s.dict.maybeBuildRanks()
	rt := s.dict.ranks.Load()
	if rt == nil {
		return nil
	}
	return rt.orderLabel
}

// BuildOrderLabels builds and publishes a rank table synchronously,
// regardless of the background trigger's size floor. Benchmarks and
// tests use it to measure the label-driven top-k path deterministically;
// production traffic relies on the background rebuild instead.
func (s *Store) BuildOrderLabels() { s.dict.buildRanks() }
