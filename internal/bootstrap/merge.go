package bootstrap

import (
	"sort"

	"sapphire/internal/bins"
	"sapphire/internal/rdf"
	"sapphire/internal/suffixtree"
)

// MergeCaches combines per-endpoint caches into one cache spanning all
// registered endpoints, so a single PUM can complete and suggest across
// the whole federation. The suffix tree and bins are rebuilt over the
// union of indexed strings; stats are summed.
func MergeCaches(caches ...*Cache) *Cache {
	if len(caches) == 1 {
		return caches[0]
	}
	merged := &Cache{
		Endpoint:      "federation",
		displayToPred: make(map[string][]rdf.Term),
		literalTerm:   make(map[string]rdf.Term),
		inTree:        make(map[string]bool),
	}
	seenPred := make(map[rdf.Term]bool)
	var treeStrings []string
	for _, c := range caches {
		if c == nil {
			continue
		}
		for _, p := range c.Predicates {
			if !seenPred[p] {
				seenPred[p] = true
				merged.Predicates = append(merged.Predicates, p)
			}
		}
		for lex, t := range c.literalTerm {
			if _, dup := merged.literalTerm[lex]; !dup {
				merged.literalTerm[lex] = t
			}
		}
		for s := range c.inTree {
			merged.inTree[s] = true
		}
		merged.Stats.QueriesIssued += c.Stats.QueriesIssued
		merged.Stats.Timeouts += c.Stats.Timeouts
		merged.Stats.LiteralQueries += c.Stats.LiteralQueries
		merged.Stats.SignificanceQueries += c.Stats.SignificanceQueries
		merged.Stats.UsedHierarchy = merged.Stats.UsedHierarchy || c.Stats.UsedHierarchy
		merged.Stats.Duration += c.Stats.Duration
	}
	for _, p := range merged.Predicates {
		d := DisplayName(p)
		if len(merged.displayToPred[d]) == 0 {
			merged.inTree[d] = true
		}
		merged.displayToPred[d] = append(merged.displayToPred[d], p)
	}
	for s := range merged.inTree {
		treeStrings = append(treeStrings, s)
	}
	sort.Strings(treeStrings)
	merged.Tree = suffixtree.New(treeStrings)
	merged.treeLiterals = treeLiteralsOf(treeStrings, merged.literalTerm)
	var residual []string
	for lex := range merged.literalTerm {
		if !merged.inTree[lex] {
			residual = append(residual, lex)
		}
	}
	sort.Strings(residual)
	merged.Bins = bins.New(residual)

	merged.Stats.PredicateCount = len(merged.Predicates)
	merged.Stats.LiteralCount = len(merged.literalTerm)
	merged.Stats.SignificantCount = 0
	for lex := range merged.inTree {
		if _, isLit := merged.literalTerm[lex]; isLit {
			merged.Stats.SignificantCount++
		}
	}
	merged.Stats.ResidualCount = merged.Bins.Len()
	merged.Stats.BinCount = merged.Bins.BinCount()
	merged.Stats.TreeNodes = merged.Tree.NodeCount()
	merged.Stats.TreeBytes = merged.Tree.ApproxBytes()
	return merged
}
