package similarity

import (
	"math"
	"strings"
	"testing"
)

// refJaroWinkler and refJaro are the original rune-slice implementations,
// kept verbatim as the oracle for the stack-buffer kernel: every score
// must match them bit for bit, because query construction ranks
// candidates by these scores and any drift changes which query is built.
func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	if j == 0 {
		return 0
	}
	// Common prefix up to 4 runes.
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	const scale = 0.1
	return j + float64(prefix)*scale*(1-j)
}

func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
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
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
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

// kernelSeeds covers the decoder's branches: ASCII, multi-byte UTF-8, a
// non-ASCII byte after an ASCII prefix, invalid UTF-8, empty operands,
// and operands past the stack buffer in runes and in bytes.
var kernelSeeds = [][2]string{
	{"Jack Kerouac", "Jack Kerouacs"},
	{"MARTHA", "MARHTA"},
	{"", ""},
	{"", "abc"},
	{"abc", ""},
	{"Gödel", "Godel"},
	{"Zürich", "Zuerich"},
	{"東京都", "東京"},
	{"naïve café", "naive cafe"},
	{"ab\xffcd", "ab\xfecd"},
	{"\xc3", "\xc3\xa9"},
	{"\xe6\x9d", "\xe6\x9d\xb1"},
	{strings.Repeat("Kerouac ", 13), strings.Repeat("Kerouac ", 12) + "Kerouacs"},
	{strings.Repeat("é", 97), strings.Repeat("e", 97)},
	{strings.Repeat("x", 200), "x"},
	{strings.Repeat("ab", 48), strings.Repeat("ba", 48)},
}

func TestKernelMatchesReference(t *testing.T) {
	for _, s := range kernelSeeds {
		checkBits(t, s[0], s[1])
		checkBits(t, s[1], s[0])
	}
}

func checkBits(t *testing.T, a, b string) {
	t.Helper()
	if got, want := JaroWinkler(a, b), refJaroWinkler(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("JaroWinkler(%q, %q) = %v, reference %v", a, b, got, want)
	}
	if got, want := Jaro(a, b), refJaro(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
	}
}

// FuzzJaroWinkler asserts the kernel is bit-identical to the reference on
// arbitrary byte strings.
func FuzzJaroWinkler(f *testing.F) {
	for _, s := range kernelSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(checkBits)
}

// TestJaroWinklerNoAllocs pins the zero-allocation contract for the
// operands the QSM scores: ASCII strings of at most 80 runes.
func TestJaroWinklerNoAllocs(t *testing.T) {
	pairs := [][2]string{
		{"Jack Kerouac", "Jack Kerouacs"},
		{"", "Kennedy"},
		{strings.Repeat("a", 80), strings.Repeat("ab", 40)},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { JaroWinkler(p[0], p[1]) }); n != 0 {
			t.Errorf("JaroWinkler(%q, %q): %v allocs/op, want 0", p[0], p[1], n)
		}
	}
}
