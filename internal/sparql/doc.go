// Package sparql implements the subset of SPARQL 1.1 that Sapphire needs:
// SELECT queries with triple patterns, FILTER expressions, DISTINCT,
// aggregates (COUNT), GROUP BY, ORDER BY, LIMIT and OFFSET, and PREFIX
// declarations. This covers every query in the paper: the Ivy League
// example in Section 1, the initialization queries Q1–Q10 in Appendix A,
// and the user-study queries in Appendix B.
//
// The pipeline is lexer → parser → AST → planner → streaming operator
// pipeline. The evaluator runs against any Graph (the in-memory store,
// or a federation of endpoints) and supports a per-row budget hook so
// simulated endpoints can enforce timeouts the way real SPARQL
// endpoints do.
//
// # The streaming pipeline
//
// Eval compiles a query into a plan (plan.go): a slot layout mapping
// every pattern variable to a column of a uint32 solution row, each
// pattern group greedily reordered most-selective-first by the graph's
// exact cardinalities, and every FILTER assigned to the earliest
// pipeline stage at which its variables can no longer change. The plan
// executes as a chain of push-based operators (iter.go) — depth-first
// index-nested-loop join with inline level filters, left joins for
// OPTIONAL, ORDER BY as a bounded top-k heap or a full sort (one
// comparator over the graph's rank labels, order.go), projection,
// ID-keyed DISTINCT, and an OFFSET/LIMIT slice whose early-exit
// propagates back up the whole chain, for every query class.
// Rows stay dictionary IDs end to end; terms materialize only when rows
// leave the pipeline (or inside filter and order-key evaluation).
//
// All graphs run the same pipeline, from one of exactly two sources. An
// IDGraph (the in-memory store) is the fast path: scans run in ID space
// directly. A plain Graph's term-level matches are interned into a
// query-local dictionary, so joins and DISTINCT still compare integers.
// Implementations of IDGraph must follow the store's ID contract:
//
//   - The zero ID is the wildcard, mirroring the zero-Term convention
//     of Match; no term ever has ID 0.
//   - IDs are dense and append-only for the life of the graph, so
//     solution rows can carry raw IDs between operators.
//   - Every evaluation pins the graph once with PinRead and scans only
//     through MatchIDsPinned and ScanMorselsPinned until it releases
//     the pin. The depth-first join issues the next level's scan from
//     inside the current level's callback, and parallel workers scan
//     concurrently, so the pinned scans must take no locks and must be
//     reentrant. Lookup (dictionary locks) and ResolveID (lock-free)
//     stay callable while pinned, so terms can materialize mid-scan.
//   - ScanMorselsPinned emits exactly the MatchIDsPinned order, cut
//     into batches the callee may retain.
//
// Remote endpoints and federations implement only Graph and take the
// localDict path transparently.
package sparql
