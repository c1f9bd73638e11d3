package main

import (
	"context"
	"fmt"
	"time"
)

// typeaheadRate is the open-loop keystroke arrival rate, about a quarter
// of the server's closed-loop /complete capacity on a 2-core machine.
const typeaheadRate = 1700.0

// typists is how many sessions type at once; each keystroke advances
// one of them.
const typists = 32

// keystroke is one /complete request of the typeahead workload.
type keystroke struct {
	due  time.Duration // since the start of the stream
	term string
}

// typeaheadStream generates the keystrokes arriving in [0, span): a
// Poisson process at typeaheadRate, each arrival typing the next
// character of one of the typists' current keywords.
func typeaheadStream(seed int64, span time.Duration) []keystroke {
	rng := seedRNG(seed, "typeahead")
	kws := qaldKeywords()
	type session struct {
		word []rune
		pos  int
	}
	next := func() session {
		return session{word: []rune(misspell(rng, kws[rng.Intn(len(kws))]))}
	}
	sessions := make([]session, typists)
	for i := range sessions {
		sessions[i] = next()
	}
	var out []keystroke
	t := 0.0
	for {
		t += rng.ExpFloat64() / typeaheadRate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		s := &sessions[rng.Intn(typists)]
		s.pos++
		out = append(out, keystroke{due: due, term: string(s.word[:s.pos])})
		if s.pos == len(s.word) {
			*s = next()
		}
	}
}

// typeahead is the QCM workload: independent typists, so an open loop.
// It runs webapi, pum.Complete, the suffix tree and the bins, and never
// reaches the federation, the member endpoint, sparql, store or persist.
type typeahead struct {
	ref       *reference
	warm, win []op
}

func newTypeahead(opts options, ref *reference) *typeahead {
	t := &typeahead{ref: ref}
	for _, k := range typeaheadStream(opts.seed, warmup+time.Duration(opts.seconds)*time.Second) {
		if k.due < warmup {
			t.warm = append(t.warm, completeOp(k.term, k.due))
			continue
		}
		t.win = append(t.win, completeOp(k.term, k.due-warmup))
	}
	return t
}

func (t *typeahead) opDigest(seed int64) string {
	d := newDigest()
	for i, k := range typeaheadStream(seed, time.Hour) {
		if i == digestOps {
			break
		}
		d.add(k.term, fmt.Sprint(k.due.Nanoseconds()))
	}
	return d.sum()
}

func (t *typeahead) drive(ctx context.Context, m *measurement) error {
	m.warm.openLoop(ctx, t.warm)
	return m.measure(func() time.Duration { return m.window.openLoop(ctx, t.win) })
}

func (t *typeahead) reference(_ context.Context, term string) (string, error) {
	return completionsCanon(t.ref.client.Complete(term)), nil
}

func (t *typeahead) canon(_ string, body []byte) (string, error) { return completeBodyCanon(body) }

func (t *typeahead) extraFailures(*measurement) int { return 0 }

// layers replays the window's keystrokes through the QCM's parts.
func (t *typeahead) layers(_ context.Context, _ *measurement, out map[string]float64) {
	p := t.ref.pum
	cfg := p.Config()
	var full, tree, binsT, scanned, treeFull []float64
	for i, o := range t.win {
		if i == maxReplay {
			break
		}
		term := o.key
		t0 := time.Now()
		p.Complete(term)
		t1 := time.Now()
		tr := p.CompleteTreeOnly(term)
		t2 := time.Now()
		p.CompleteBinsOnly(term, cfg.Workers)
		t3 := time.Now()
		full = append(full, us(t1.Sub(t0)))
		tree = append(tree, us(t2.Sub(t1)))
		binsT = append(binsT, us(t3.Sub(t2)))
		lo := len([]rune(term))
		scanned = append(scanned, float64(p.Cache().Bins.SelectedCount(lo, lo+cfg.Gamma)))
		if len(tr) >= cfg.K {
			treeFull = append(treeFull, 1)
		} else {
			treeFull = append(treeFull, 0)
		}
	}
	out["pum.complete_us"] = median(full)
	out["suffixtree.search_us"] = median(tree)
	out["bins.substring_us"] = median(binsT)
	out["bins.literals_scanned"] = median(scanned)
	var sum float64
	for _, x := range treeFull {
		sum += x
	}
	out["pum.tree_full_ratio"] = ratio(sum, float64(len(treeFull)))
}
