package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sapphire/internal/sparql"
)

// workload is one traffic mix.
type workload interface {
	// opDigest hashes the first digestOps ops of seed's stream.
	opDigest(seed int64) string
	// drive warms the deployment up, then runs the measured window.
	drive(ctx context.Context, m *measurement) error
	// reference computes the canonical answer for an op key in-process;
	// canon renders a response body in the same form.
	reference(ctx context.Context, key string) (string, error)
	canon(key string, body []byte) (string, error)
	// extraFailures checks what single answers cannot show.
	extraFailures(m *measurement) int
	// layers adds the workload's in-process replays to a traced run.
	layers(ctx context.Context, m *measurement, out map[string]float64)
}

// measurement is one run's state.
type measurement struct {
	opts   options
	srv    *server
	ref    *reference
	rec    *recorder
	warm   *loadGen // unmeasured traffic: warm-up
	window *loadGen // the measured window

	before, after serverState
	elapsed       time.Duration

	spans         []Span
	memberQueries []string
}

func newMeasurement(opts options, srv *server, ref *reference) *measurement {
	rec := newRecorder(0)
	every := uint64(0)
	if opts.trace {
		every = 2
	}
	return &measurement{
		opts: opts, srv: srv, ref: ref, rec: rec,
		warm:   newLoadGen(srv.ready.Server, rec, 0),
		window: newLoadGen(srv.ready.Server, rec, every),
	}
}

func (m *measurement) windowSeconds() time.Duration {
	return time.Duration(m.opts.seconds) * time.Second
}

// snapshot reads the serving side's counters.
func (m *measurement) snapshot() (serverState, error) {
	var st serverState
	err := m.srv.getJSON("/state", &st)
	return st, err
}

// measure runs the window between two counter snapshots. The
// generator's own garbage collector is off during the window, so its
// collections neither compete with the serving process for the cores
// nor delay the generator's sends; the window allocates tens of MB.
func (m *measurement) measure(window func() time.Duration) error {
	var err error
	if m.before, err = m.snapshot(); err != nil {
		return err
	}
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	m.elapsed = window()
	debug.SetGCPercent(gc)
	m.after, err = m.snapshot()
	return err
}

const wrongReference = "\x00a deliberately wrong reference"

// check compares every distinct response with the in-process reference
// and counts failed ops: transport errors, non-2xx responses and wrong
// answers. A self-test then swaps in one wrong reference and expects
// its ops to be counted as failed.
func (m *measurement) check(ctx context.Context, w workload) (int, bool, error) {
	col := m.window.col
	keys := make([]string, 0, len(col.bodies))
	for k := range col.bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refs := make(map[string]string, len(keys))
	for _, k := range keys {
		want, err := w.reference(ctx, k)
		if err != nil {
			return 0, false, fmt.Errorf("reference for %q: %w", k, err)
		}
		refs[k] = want
	}
	shown := 0
	count := func(override string) int {
		bad := make(map[string]map[uint64]bool)
		for _, k := range keys {
			want := refs[k]
			if k == override {
				want = wrongReference
			}
			for h, body := range col.bodies[k] {
				if got, err := w.canon(k, body); err != nil || got != want {
					if override == "" && shown < 3 {
						shown++
						fmt.Fprintf(os.Stderr, "wrong answer for %q (%v):\n got: %.600q\nwant: %.600q\n", k, err, got, want)
					}
					if bad[k] == nil {
						bad[k] = make(map[uint64]bool)
					}
					bad[k][h] = true
				}
			}
		}
		n := 0
		for _, o := range col.outcomes {
			if o.err != nil && override == "" && shown < 6 {
				shown++
				fmt.Fprintf(os.Stderr, "failed op %.200q: %v\n", o.key, o.err)
			}
			if o.err != nil || bad[o.key][o.hash] {
				n++
			}
		}
		return n
	}
	failed := count("")
	wrongAnswers := 0
	for _, o := range col.outcomes {
		if o.err == nil {
			wrongAnswers = count(o.key)
			break
		}
	}
	selfTest := wrongAnswers > failed
	fmt.Printf("answer check: %d distinct answers, %d failed ops; self-test with one wrong reference counts %d (ok=%v)\n",
		len(keys), failed, wrongAnswers, selfTest)
	extra := w.extraFailures(m)
	return failed + extra, failed+extra == 0 && selfTest, nil
}

// latencies returns window latencies in ms; failed ops count as +Inf.
func (m *measurement) latencies(keep func(outcome) bool) []float64 {
	var out []float64
	for _, o := range m.window.col.outcomes {
		if !keep(o) {
			continue
		}
		if o.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(o.latency))
	}
	return out
}

// userMetrics are what a user of the deployment sees. In a traced run
// the latencies cover the untraced half of the ops.
func (m *measurement) userMetrics(setupS []float64, failed int) map[string]float64 {
	reads := m.latencies(func(o outcome) bool { return !o.write && !o.traced })
	writes := m.latencies(func(o outcome) bool { return o.write && !o.traced })
	p99, ok := percentile(reads, 0.99)
	if !ok {
		fmt.Printf("latency_p99_ms not reported: %d samples, fewer than %d beyond p99\n", len(reads), minBeyond)
	}
	n := len(m.window.col.outcomes)
	return map[string]float64{
		"setup_s":        median(setupS),
		"latency_p50_ms": median(reads),
		"latency_p99_ms": p99,
		"ops_per_s":      float64(n) / m.elapsed.Seconds(),
		"write_p50_ms":   median(writes),
		"error_ratio":    ratio(float64(failed), float64(n)),
		"mem_mb":         float64(m.after.RSSBytes) / 1e6,
	}
}

// perLayer adds the traced run's layer metrics. A layer the workload
// does not exercise reads 0.
func (m *measurement) perLayer(ctx context.Context, w workload, all []*server, out map[string]float64) {
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			out[d.name] = 0
		}
	}
	traced := m.latencies(func(o outcome) bool { return !o.write && o.traced })
	out["trace.overhead_ms"] = median(traced) - out["latency_p50_ms"]
	m.spanMetrics(out)
	m.counterMetrics(out)
	m.sparqlReplay(out)

	var ingest, initS, initQ, initUs []float64
	for _, s := range all {
		ingest = append(ingest, s.ready.IngestS)
		initS = append(initS, s.ready.InitS)
		initQ = append(initQ, float64(s.ready.InitQueries))
		initUs = append(initUs, s.ready.InitMemberUs)
	}
	out["persist.ingest_s"] = median(ingest)
	out["bootstrap.init_s"] = median(initS)
	out["bootstrap.init_queries"] = median(initQ)
	out["bootstrap.init_member_us"] = median(initUs)

	var late []float64
	for _, o := range m.window.col.outcomes {
		late = append(late, ms(o.late))
	}
	out["loadgen.late_p99_ms"], _ = percentile(late, 0.99)
	w.layers(ctx, m, out)
}

// spanMetrics derives the boundary timings from the merged spans.
func (m *measurement) spanMetrics(out map[string]float64) {
	byID := make(map[uint64]Span, len(m.spans))
	byName := make(map[string][]Span)
	for _, s := range m.spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	durUs := func(name string) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, us(s.dur()))
		}
		return median(xs)
	}
	bytesOf := func(name string) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.Bytes))
		}
		return median(xs)
	}
	// gap is the median of parent time not spent in the named child.
	gap := func(child string, parentOK func(Span) bool) float64 {
		var xs []float64
		for _, s := range byName[child] {
			if p, ok := byID[s.Parent]; ok && parentOK(p) {
				xs = append(xs, us(p.dur()-s.dur()))
			}
		}
		return median(xs)
	}
	isClient := func(s Span) bool { return strings.HasPrefix(s.Name, "client.") }
	out["webapi.handler_us"] = durUs("webapi.handler")
	out["webapi.resp_bytes"] = bytesOf("webapi.handler")
	out["webapi.wire_us"] = gap("webapi.handler", isClient)
	out["federation.member_query_us"] = durUs("federation.member_query")
	out["endpoint.client_resp_bytes"] = bytesOf("endpoint.client_roundtrip")
	out["endpoint.local_query_us"] = durUs("endpoint.local_query")
	out["endpoint.encode_us"] = gap("endpoint.local_query", func(p Span) bool { return p.Name == "endpoint.mux" })
	out["endpoint.wire_us"] = gap("endpoint.mux", func(p Span) bool {
		return isClient(p) || p.Name == "endpoint.client_roundtrip"
	})
	out["persist.add_us"] = durUs("persist.add")

	// Coverage: the share of client-observed time that the top-level
	// server spans account for.
	var covered, total float64
	for _, s := range m.spans {
		if p, ok := byID[s.Parent]; ok && isClient(p) && !isClient(s) {
			covered += float64(s.dur())
			total += float64(p.dur())
		}
	}
	out["trace.coverage"] = ratio(covered, total)

	self := selfTimes(m.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("self time per span (median us, spans):")
	for _, n := range names {
		fmt.Printf("  %-34s %12.1f %8d\n", n, median(durationsUs(self[n])), len(self[n]))
	}
}

// counterMetrics turns the serving side's counter deltas into ratios.
func (m *measurement) counterMetrics(out map[string]float64) {
	b, a := m.before, m.after
	ops := float64(len(m.window.col.outcomes))
	queries := float64(a.MemberQueries - b.MemberQueries)
	hits := float64(a.Local.CacheHits - b.Local.CacheHits)
	misses := float64(a.Local.CacheMisses - b.Local.CacheMisses)
	out["federation.member_queries_per_op"] = ratio(queries, ops)
	out["federation.epoch_probes_per_op"] = ratio(float64(a.EpochProbes-b.EpochProbes), ops)
	out["endpoint.client_attempts_per_query"] = ratio(float64(a.SparqlTrips-b.SparqlTrips), queries)
	out["endpoint.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["endpoint.cache_evicted"] = float64(a.Local.CacheEvicted - b.Local.CacheEvicted)
	out["endpoint.cache_coalesced"] = float64(a.Local.CacheCoalesced - b.Local.CacheCoalesced)
	out["endpoint.cache_bytes"] = float64(a.Local.CacheBytes) / 1e6
	out["endpoint.rejected"] = float64(a.Local.Rejected - b.Local.Rejected)
	out["endpoint.timeouts"] = float64(a.Local.Timeouts - b.Local.Timeouts)
	out["store.epoch_advances"] = float64(a.Epoch - b.Epoch)
	out["store.triples"] = float64(a.Triples)
	var body float64
	for _, o := range m.window.col.outcomes {
		if o.write && o.err == nil {
			body += float64(o.bodyBytes)
		}
	}
	out["persist.wal_bytes_per_user_byte"] = ratio(float64(a.WALBytes-b.WALBytes), body)
}

// maxReplay bounds each in-process replay.
const maxReplay = 2000

// sparqlReplay parses and evaluates the member queries of traced
// requests on the reference store, counting the evaluator's budget
// ticks (intermediate rows) per result row.
func (m *measurement) sparqlReplay(out map[string]float64) {
	var parse, eval []float64
	var ticks, rows float64
	for i, q := range m.memberQueries {
		if i == maxReplay {
			break
		}
		t0 := time.Now()
		pq, err := sparql.Parse(q)
		parse = append(parse, us(time.Since(t0)))
		if err != nil {
			continue
		}
		t1 := time.Now()
		res, err := sparql.Eval(m.ref.store, pq, sparql.Options{Budget: func() error { ticks++; return nil }})
		eval = append(eval, us(time.Since(t1)))
		if err == nil {
			rows += float64(len(res.Rows))
		}
	}
	out["sparql.parse_us"] = median(parse)
	out["sparql.eval_us"] = median(eval)
	out["sparql.rows_examined_per_row"] = ratio(ticks, rows)
}

// writeTrace keeps the traced run's spans under .bench_build.
func (m *measurement) writeTrace(fp map[string]any) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", m.opts.workload, m.opts.seed))
	data, err := json.Marshal(map[string]any{"fingerprint": fp, "spans": m.spans})
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(m.spans), path)
	return os.WriteFile(path, data, 0o644)
}

// The three workloads.

func prepare(opts options, ref *reference) (workload, error) {
	switch opts.workload {
	case "typeahead":
		return newTypeahead(opts, ref), nil
	case "run-repair":
		return newRunRepair(opts, ref)
	default:
		return newSparqlRW(opts, ref)
	}
}
