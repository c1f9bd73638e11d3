package similarity

import "testing"

// BenchmarkJaroWinkler measures the QSM's similarity primitive, applied
// once per candidate literal during alternative search.
func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = JaroWinkler("Jack Kerouac", "Jack Kerouacs")
	}
}

// sink keeps the compiler from dropping a benchmarked call.
var sink float64

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein("Jack Kerouac", "Jack Kerouacs")
	}
}

func BenchmarkJaccardTokens(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaccardTokens("the viking press", "viking press publishing")
	}
}
