// Package similarity implements the string similarity measures used by
// the Query Suggestion Module. The paper selects Jaro-Winkler (Section
// 6.2.1) because it favors strings matching from the beginning; we also
// provide Levenshtein and Jaccard for the ablation benchmarks comparing
// the choice of measure.
package similarity

import "unicode/utf8"

// stackRunes is the rune capacity of the Jaro kernel's stack buffers.
// Cached literals are capped at 80 characters (the paper's
// MaxLiteralLength), so every operand the QSM scores fits; longer
// strings spill to the heap. The kernel is the QSM's inner loop — it
// runs once per candidate literal and predicate on every "Run" — so it
// must not allocate on that path.
const stackRunes = 96

// JaroWinkler returns the Jaro-Winkler similarity of two strings in
// [0, 1]. Identical strings score 1; completely dissimilar strings score
// 0. The standard prefix scale 0.1 with a maximum common-prefix length of
// 4 is used.
func JaroWinkler(a, b string) float64 {
	var bufA, bufB [stackRunes]rune
	ra, rb := decodeRunes(a, bufA[:0]), decodeRunes(b, bufB[:0])
	j := jaro(ra, rb)
	if j == 0 {
		return 0
	}
	// Common prefix up to 4 runes.
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	const scale = 0.1
	return j + float64(prefix)*scale*(1-j)
}

// Jaro returns the Jaro similarity of two strings in [0, 1].
func Jaro(a, b string) float64 {
	var bufA, bufB [stackRunes]rune
	return jaro(decodeRunes(a, bufA[:0]), decodeRunes(b, bufB[:0]))
}

// decodeRunes appends the runes of s to buf, exactly as []rune(s) would
// decode them (invalid bytes become utf8.RuneError one byte at a time).
// ASCII bytes are copied directly; the first non-ASCII byte switches to
// full UTF-8 decoding for the rest of the string.
func decodeRunes(s string, buf []rune) []rune {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			for _, r := range s[i:] {
				buf = append(buf, r)
			}
			return buf
		}
		buf = append(buf, rune(s[i]))
	}
	return buf
}

// jaro is the Jaro similarity over decoded runes.
func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	var bitsA, bitsB [stackRunes]bool
	matchA, matchB := matchBits(bitsA[:], la), matchBits(bitsB[:], lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	t := float64(trans) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// matchBits returns an n-long match bitmap, backed by stack when it fits.
func matchBits(stack []bool, n int) []bool {
	if n <= len(stack) {
		return stack[:n]
	}
	return make([]bool, n)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
