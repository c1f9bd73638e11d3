// Command sapbench is the repository's benchmark. It stands up the
// paper's Figure 1 deployment on loopback HTTP — a member SPARQL
// endpoint over a durable store, and the Sapphire server registered to
// it over the wire — drives one workload against it from this process,
// checks every answer against an in-process reference, and prints the
// metrics, the last line being one JSON object:
//
//	bash sapbench/run.sh --workload typeahead --seed 1 --seconds 10 --trace 0
//
// With --trace 1 every other request is traced across both hops and
// the per-layer metrics are printed instead of the end-to-end ones.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"sapphire/internal/lexicon"
)

// setups is how many times a run stands the deployment up; setup_s is
// their median.
const setups = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "sapbench serve:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sapbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("sapbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: trace requests and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		return o, fmt.Errorf("bad --seconds %d or --trace %d", o.seconds, trace)
	}
	o.trace = trace == 1
	return o, nil
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) error {
	opts, err := parseOptions(args)
	if err != nil {
		return err
	}
	if err := checkBenchmarkFile("BENCHMARK.json"); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	workdir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(workdir)

	ref, err := buildReference(ctx, opts.workload != "sparql-rw")
	if err != nil {
		return err
	}
	triples, dataset := datasetDigest(ref.store) // before any workload touches the store
	fp := fingerprint(triples)
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)
	w, err := prepare(opts, ref)
	if err != nil {
		return err
	}
	if err := checkInputs(opts, triples, dataset, w); err != nil {
		return err
	}

	srv, all, err := setupServers(ctx, workdir, setups)
	if err != nil {
		return err
	}
	defer srv.stop()
	var setupS []float64
	for _, s := range all {
		setupS = append(setupS, s.setup.Seconds())
	}
	fmt.Printf("setup_s runs %v\n", setupS)

	m := newMeasurement(opts, srv, ref)
	if err := w.drive(ctx, m); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("run exceeded its time limit")
	}
	if opts.trace {
		var dump traceDump
		if err := srv.getJSON("/spans", &dump); err != nil {
			return err
		}
		m.spans = append(m.rec.take(), dump.Spans...)
		m.memberQueries = dump.MemberQueries
	}
	srv.stop()

	failed, correct, err := m.check(ctx, w)
	if err != nil {
		return err
	}
	metrics := m.userMetrics(setupS, failed)
	attempted := len(m.window.col.outcomes)
	fmt.Printf("ops attempted %d failed %d\n", attempted, failed)
	for _, name := range []string{"setup_s", "latency_p50_ms", "latency_p99_ms", "ops_per_s", "write_p50_ms", "error_ratio", "mem_mb"} {
		fmt.Printf("e2e %-34s %14.4f %s\n", name, metrics[name], unitOf(name))
	}
	if opts.trace {
		m.perLayer(ctx, w, all, metrics)
		if err := m.writeTrace(fp); err != nil {
			return err
		}
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		fmt.Printf("%-38s %14.4f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// fingerprint identifies the machine and configuration a number came
// from, so numbers from different machines are never compared unknowingly.
func fingerprint(triples int) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu": cpu,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "fsync": "always",
		"dataset_triples": triples, "dataset_entities": datasetConfig(), "clients": clients,
	}
}

// lexiconDigest hashes the lexicon's verbalizations of every QALD
// keyword — the lexicon input the QSM sees for this traffic.
func lexiconDigest() string {
	lx := lexicon.Default()
	d := newDigest()
	for _, kw := range qaldKeywords() {
		d.add(kw)
		d.add(lx.Lexica(kw)...)
	}
	return d.sum()
}

// checkInputs prints the input digests and fails when the dataset, the
// lexicon or the canary seed's op stream differ from digests.json.
func checkInputs(opts options, n int, ds string, w workload) error {
	want, err := loadDigests()
	if err != nil {
		return err
	}
	lx := lexiconDigest()
	cur := w.opDigest(opts.seed)
	canary := w.opDigest(canarySeed)
	fmt.Printf("inputs dataset_triples %d dataset %s lexicon %s ops[%s seed %d] %s ops[canary seed %d] %s\n",
		n, ds, lx, opts.workload, opts.seed, cur, canarySeed, canary)
	var errs []error
	if n != want.Triples || ds != want.Dataset {
		errs = append(errs, fmt.Errorf("dataset is %d triples / %s, digests.json pins %d / %s", n, ds, want.Triples, want.Dataset))
	}
	if lx != want.Lexicon {
		errs = append(errs, fmt.Errorf("lexicon digest %s, digests.json pins %s", lx, want.Lexicon))
	}
	if c := want.CanaryOps[opts.workload]; canary != c {
		errs = append(errs, fmt.Errorf("%s op stream for seed %d digests to %s, digests.json pins %s", opts.workload, canarySeed, canary, c))
	}
	if len(errs) > 0 {
		return fmt.Errorf("benchmark inputs changed: %w", errors.Join(errs...))
	}
	return nil
}

// unitOf finds a metric's unit in the metric lists.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
