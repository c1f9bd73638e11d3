package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// workloadNames are the workloads the command accepts.
var workloadNames = []string{"typeahead", "run-repair", "sparql-rw"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user sees them: the
// ones that repeat within their bound on this benchmark's machine.
// latency_p99_ms and ops_per_s are printed with them but gated in the
// per-layer list: run-repair completes too few ops for a p99, and its
// throughput swings with the few multi-hundred-ms /run calls a window
// happens to hold.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"latency_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"error_ratio", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"run.repeat_share", "ratio"},
	{"run.set_aside_share", "ratio"},
	{"webapi.handler_us", "us"},
	{"webapi.resp_bytes", "bytes"},
	{"webapi.wire_us", "us"},
	{"pum.complete_us", "us"},
	{"suffixtree.search_us", "us"},
	{"bins.substring_us", "us"},
	{"bins.literals_scanned", "count"},
	{"pum.tree_full_ratio", "ratio"},
	{"pum.execute_ms", "ms"},
	{"pum.suggest_ms", "ms"},
	{"pum.altpred_us", "us"},
	{"bins.similar_us", "us"},
	{"steiner.relax_ms", "ms"},
	{"pum.prefetch_yield", "ratio"},
	{"federation.member_queries_per_op", "count"},
	{"federation.epoch_probes_per_op", "count"},
	{"federation.member_query_us", "us"},
	{"endpoint.client_resp_bytes", "bytes"},
	{"endpoint.client_attempts_per_query", "count"},
	{"endpoint.local_query_us", "us"},
	{"endpoint.encode_us", "us"},
	{"endpoint.wire_us", "us"},
	{"endpoint.cache_hit_ratio", "ratio"},
	{"endpoint.cache_evicted", "count"},
	{"endpoint.cache_coalesced", "count"},
	{"endpoint.cache_bytes", "MB"},
	{"endpoint.rejected", "count"},
	{"endpoint.timeouts", "count"},
	{"sparql.parse_us", "us"},
	{"sparql.eval_us", "us"},
	{"sparql.rows_examined_per_row", "ratio"},
	{"store.epoch_advances", "count"},
	{"store.triples", "count"},
	{"persist.add_us", "us"},
	{"persist.wal_bytes_per_user_byte", "ratio"},
	{"rdf.ntriples_parse_us", "us"},
	{"persist.ingest_s", "s"},
	{"bootstrap.init_s", "s"},
	{"bootstrap.init_queries", "count"},
	{"bootstrap.init_member_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
}

// benchmarkFile is the part of BENCHMARK.json this command must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// checkBenchmarkFile verifies that the workload and metric names (and
// units) this command prints are exactly those BENCHMARK.json declares.
func checkBenchmarkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames) {
		return fmt.Errorf("%s lists workloads %v, the command runs %v", path, wl, workloadNames)
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) error {
		var a, b []string
		for _, m := range got {
			a = append(a, m.name+" ["+m.unit+"]")
		}
		for _, m := range want {
			b = append(b, m.Name+" ["+m.Unit+"]")
		}
		if !slices.Equal(a, b) {
			return fmt.Errorf("%s %s metrics %v differ from the command's %v", path, kind, b, a)
		}
		return nil
	}
	if err := check("end_to_end", endToEnd, bf.EndToEnd); err != nil {
		return err
	}
	return check("per_layer", perLayer, bf.PerLayer)
}

//go:embed digests.json
var digestsJSON []byte

// inputDigests pins the benchmark's inputs: the dataset, the lexicon
// verbalizations of the QALD keywords, and each workload's op stream
// for canarySeed. A change to datagen, qald or lexicon fails the run
// instead of silently changing the traffic.
type inputDigests struct {
	Triples   int               `json:"triples"`
	Dataset   string            `json:"dataset"`
	Lexicon   string            `json:"lexicon"`
	CanaryOps map[string]string `json:"canary_ops"`
}

const canarySeed = 1

func loadDigests() (inputDigests, error) {
	var d inputDigests
	err := json.Unmarshal(digestsJSON, &d)
	return d, err
}
