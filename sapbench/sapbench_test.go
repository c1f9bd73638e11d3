package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOpDigestsFollowTheSeed(t *testing.T) {
	ref, err := buildReference(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := newSparqlRW(options{workload: "sparql-rw", seed: 7, seconds: 1}, ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]workload{
		"typeahead":  &typeahead{ref: ref},
		"run-repair": &runRepair{ref: ref},
		"sparql-rw":  rw,
	} {
		a, b, c := w.opDigest(7), w.opDigest(7), w.opDigest(8)
		if a != b {
			t.Errorf("%s: seed 7 digests to %s, then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share the digest %s", name, a)
		}
		if got := w.opDigest(canarySeed); got != want.CanaryOps[name] {
			t.Errorf("%s: canary digest %s, digests.json pins %s", name, got, want.CanaryOps[name])
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	if _, ok := percentile(sample(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	v, ok := percentile(sample(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(sample(10), 0.5); ok {
		t.Error("p50 of 10 samples has 5 beyond it and must not be reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestNamesMatchBenchmarkFile(t *testing.T) {
	if err := checkBenchmarkFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf map[string]any
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	bf["per_layer"] = bf["per_layer"].([]any)[1:]
	bad, _ := json.Marshal(bf)
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkBenchmarkFile(path); err == nil {
		t.Error("a BENCHMARK.json missing a per-layer metric passed the check")
	}
}

// fakeWorkload answers every key with its own name.
type fakeWorkload struct{ workload }

func (fakeWorkload) reference(_ context.Context, key string) (string, error) { return key, nil }
func (fakeWorkload) canon(_ string, body []byte) (string, error)             { return string(body), nil }
func (fakeWorkload) extraFailures(*measurement) int                          { return 0 }

func TestWrongAnswersAreCounted(t *testing.T) {
	m := &measurement{window: newLoadGen("", newRecorder(0), 0)}
	add := func(key, body string) {
		m.window.col.add(outcome{key: key, hash: uint64(len(body))}, []byte(body))
	}
	add("a", "a")
	add("a", "a")
	add("bb", "bb")
	failed, ok, err := m.check(context.Background(), fakeWorkload{})
	if err != nil || failed != 0 || !ok {
		t.Fatalf("all answers right: failed %d ok %v err %v", failed, ok, err)
	}
	add("bb", "wrong")
	failed, ok, _ = m.check(context.Background(), fakeWorkload{})
	if failed != 1 || ok {
		t.Errorf("one wrong answer: failed %d ok %v, want 1 false", failed, ok)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []Span{
		{Name: "root", ID: 1, Start: ms(0), End: ms(10)},
		{Name: "kid", ID: 2, Parent: 1, Start: ms(1), End: ms(4)},
		{Name: "kid", ID: 3, Parent: 1, Start: ms(3), End: ms(6)}, // overlaps the first
	}
	self := selfTimes(spans)
	if got := self["root"][0]; got != 5*time.Millisecond {
		t.Errorf("root self time %v, want 5ms", got)
	}
	if got := self["kid"]; len(got) != 2 || got[0] != 3*time.Millisecond {
		t.Errorf("kid self times %v", got)
	}
}

func TestTypeaheadStreamIsOpenLoop(t *testing.T) {
	ks := typeaheadStream(3, 2*time.Second)
	rate := float64(len(ks)) / 2
	if rate < 0.9*typeaheadRate || rate > 1.1*typeaheadRate {
		t.Errorf("%d keystrokes in 2s, want about %v/s", len(ks), typeaheadRate)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i].due < ks[i-1].due || ks[i].term == "" {
			t.Fatalf("keystroke %d: %+v after %+v", i, ks[i], ks[i-1])
		}
	}
}
