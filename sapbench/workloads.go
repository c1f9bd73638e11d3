package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sapphire/internal/datagen"
	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// datasetConfig is datagen's default dataset with every entity count
// multiplied by four (about 96k triples).
func datasetConfig() datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.People *= 4
	cfg.Cities *= 4
	cfg.Books *= 4
	cfg.Films *= 4
	cfg.Companies *= 4
	return cfg
}

// digestOps is how many leading ops of a stream the op-stream digest
// covers; the digest is then independent of run length.
const digestOps = 4096

// warmup is how long each workload runs unmeasured before the window.
const warmup = time.Second

// seedRNG derives an independent generator from the run seed and a
// purpose, so adding a purpose never shifts another stream.
func seedRNG(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return rand.New(rand.NewSource(v))
}

// misspell distorts a keyword the way the simulated user-study
// participants do: half the time not at all, otherwise a plural, an
// adjacent-letter swap, or a vaguer phrasing.
func misspell(rng *rand.Rand, kw string) string {
	if rng.Float64() < 0.5 {
		return kw
	}
	switch rng.Intn(3) {
	case 0:
		return kw + "s"
	case 1:
		r := []rune(kw)
		if len(r) >= 4 {
			i := 1 + rng.Intn(len(r)-2)
			r[i], r[i+1] = r[i+1], r[i]
		}
		return string(r)
	default:
		if !strings.Contains(kw, " ") {
			return "the " + kw
		}
		return strings.Fields(kw)[0]
	}
}

// qaldKeywords lists every predicate and literal keyword of the QALD
// question plans, in suite order, without duplicates.
func qaldKeywords() []string {
	seen := make(map[string]bool)
	var out []string
	for _, q := range qald.Questions() {
		for _, t := range q.Plan.Triples {
			for _, n := range []qald.Node{t.S, t.P, t.O} {
				if n.Keyword != "" && !seen[n.Keyword] {
					seen[n.Keyword] = true
					out = append(out, n.Keyword)
				}
			}
		}
	}
	return out
}

// digest accumulates a hex sha256 over length-prefixed strings.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(d.h, "%d:%s;", len(p), p)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// datasetDigest hashes the dataset's triples in sorted N-Triples form.
func datasetDigest(st *store.Store) (int, string) {
	var lines []string
	st.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		lines = append(lines, tr.S.String()+" "+tr.P.String()+" "+tr.O.String())
		return true
	})
	sort.Strings(lines)
	d := newDigest()
	d.add(lines...)
	return len(lines), d.sum()
}
