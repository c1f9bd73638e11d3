package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"sapphire"
	"sapphire/internal/bootstrap"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/operator"
	"sapphire/internal/pum"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// reference is the in-process copy of the deployment every answer is
// checked against: the same dataset and member limits, with no HTTP.
type reference struct {
	store  *store.Store
	local  *endpoint.Local
	client *sapphire.Client
	pum    *pum.PUM
	op     *operator.Operator
}

func memberLimits() endpoint.Limits {
	l := endpoint.DefaultLimits()
	l.CacheBytes = endpoint.DefaultCacheBytes
	return l
}

// buildReference generates the dataset and, when withClient is set,
// initializes a Sapphire client over it in-process.
func buildReference(ctx context.Context, withClient bool) (*reference, error) {
	st := datagen.Generate(datasetConfig()).Store
	ref := &reference{store: st, local: endpoint.NewLocal("member", st, memberLimits())}
	if !withClient {
		return ref, nil
	}
	// The client initializes over the in-process endpoint, as the server
	// does over HTTP. (A cache round-tripped through Save and Load
	// rebuilds its suffix tree in another order, which changes which K
	// of the matches Complete returns, so it cannot serve as reference.)
	ref.client = sapphire.New(sapphire.Defaults())
	if err := ref.client.RegisterEndpoint(ctx, ref.local); err != nil {
		return nil, fmt.Errorf("reference initialization: %w", err)
	}
	// The replays need the PUM itself, which the client does not
	// expose; a second initialization builds an identical one.
	cache, err := bootstrap.Initialize(ctx, ref.local, bootstrap.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("reference initialization: %w", err)
	}
	ref.pum = pum.New(cache, federation.New(ref.local), nil, pum.DefaultConfig())
	ref.op = operator.New(ref.pum)
	return ref, nil
}

// Canonical forms. A response and its reference are equal when their
// canonical strings are; row order counts only under ORDER BY.

func canonRows(rows []string, ordered bool) string {
	if !ordered {
		rows = append([]string(nil), rows...)
		sort.Strings(rows)
	}
	return strings.Join(rows, "\n")
}

func completionsCanon(cs []pum.Completion) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "%s|%v|%v\n", c.Text, c.IsPredicate, c.FromTree)
	}
	return b.String()
}

// completeBodyCanon decodes a /complete response.
func completeBodyCanon(body []byte) (string, error) {
	var cs []pum.Completion
	var raw []struct {
		Text        string `json:"text"`
		IsPredicate bool   `json:"isPredicate"`
		FromTree    bool   `json:"fromTree"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return "", err
	}
	for _, r := range raw {
		cs = append(cs, pum.Completion{Text: r.Text, IsPredicate: r.IsPredicate, FromTree: r.FromTree})
	}
	return completionsCanon(cs), nil
}

// renderTerm is the web API's rendering of a result term.
func renderTerm(t rdf.Term) string {
	if t.IsIRI() {
		return t.Value
	}
	return t.String()
}

func runCanon(vars []string, rows [][]string, sugs []string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\t")
	}
	return strings.Join(vars, " ") + "\n" + canonRows(lines, false) + "\n--\n" + strings.Join(sugs, "\n")
}

// runRefCanon computes a /run answer in-process: Client.Query for the
// answers and Client.Suggest for the suggestions. The two calls' times
// are appended to execMs and suggestMs.
func runRefCanon(ctx context.Context, c *sapphire.Client, query string, execMs, suggestMs *[]float64) (string, error) {
	t0 := time.Now()
	res, err := c.Query(ctx, query)
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	sugs, err := c.Suggest(ctx, query)
	if err != nil {
		return "", err
	}
	*execMs = append(*execMs, ms(t1.Sub(t0)))
	*suggestMs = append(*suggestMs, ms(time.Since(t1)))
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		r := make([]string, len(res.Vars))
		for j, v := range res.Vars {
			if t, ok := row[v]; ok {
				r[j] = renderTerm(t)
			}
		}
		rows[i] = r
	}
	ss := make([]string, len(sugs))
	for i, s := range sugs {
		ss[i] = s.Kind.String() + "\t" + s.Query.String() + "\t" + strconv.Itoa(s.Answers)
	}
	return runCanon(res.Vars, rows, ss), nil
}

// runBodyCanon decodes a /run response.
func runBodyCanon(body []byte) (string, error) {
	var r struct {
		Results struct {
			Vars []string            `json:"vars"`
			Rows []map[string]string `json:"rows"`
		} `json:"results"`
		Suggestions []struct {
			Kind    string `json:"kind"`
			Query   string `json:"query"`
			Answers int    `json:"answers"`
		} `json:"suggestions"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	rows := make([][]string, len(r.Results.Rows))
	for i, row := range r.Results.Rows {
		out := make([]string, len(r.Results.Vars))
		for j, v := range r.Results.Vars {
			out[j] = row[v]
		}
		rows[i] = out
	}
	ss := make([]string, len(r.Suggestions))
	for i, s := range r.Suggestions {
		ss[i] = s.Kind + "\t" + s.Query + "\t" + strconv.Itoa(s.Answers)
	}
	return runCanon(r.Results.Vars, rows, ss), nil
}

func resultsCanon(res *sparql.Results, ordered bool) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(res.Vars))
		for j, v := range res.Vars {
			if t, ok := row[v]; ok {
				parts[j] = t.String()
			}
		}
		lines[i] = strings.Join(parts, "\t")
	}
	return strings.Join(res.Vars, " ") + "\n" + canonRows(lines, ordered)
}

// sparqlBodyCanon decodes a SPARQL JSON results response.
func sparqlBodyCanon(body []byte, ordered bool) (string, error) {
	var r struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Lang     string `json:"xml:lang"`
				Datatype string `json:"datatype"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	res := &sparql.Results{Vars: r.Head.Vars}
	for _, b := range r.Results.Bindings {
		row := make(sparql.Binding, len(b))
		for v, jt := range b {
			var t rdf.Term
			switch {
			case jt.Type == "uri":
				t = rdf.NewIRI(jt.Value)
			case jt.Type == "bnode":
				t = rdf.NewBlank(jt.Value)
			case jt.Lang != "":
				t = rdf.NewLangLiteral(jt.Value, jt.Lang)
			case jt.Datatype != "":
				t = rdf.NewTypedLiteral(jt.Value, jt.Datatype)
			default:
				t = rdf.NewLiteral(jt.Value)
			}
			row[v] = t
		}
		res.Rows = append(res.Rows, row)
	}
	return resultsCanon(res, ordered), nil
}

// invariantReads evaluates every read on the reference store, adds a
// batch of probe facts shaped like the workload's writes, and keeps the
// reads whose answers did not move. It returns the kept queries, their
// canonical answers, and whether each one's row order counts.
func invariantReads(st *store.Store, qs []string) (kept, answers []string, ordered []bool, err error) {
	parsed := make([]*sparql.Query, len(qs))
	for i, q := range qs {
		if parsed[i], err = sparql.Parse(q); err != nil {
			return nil, nil, nil, fmt.Errorf("read %q: %w", q, err)
		}
	}
	before := make([]string, len(qs))
	for i, q := range parsed {
		res, err := sparql.Eval(st, q, sparql.Options{})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("read %q: %w", qs[i], err)
		}
		before[i] = resultsCanon(res, len(q.OrderBy) > 0)
	}
	for k := 0; k < 3; k++ {
		triples, err := rdf.NewReader(strings.NewReader(freshFacts("probe", 0, k))).ReadAll()
		if err != nil {
			return nil, nil, nil, err
		}
		if err := st.AddAll(triples); err != nil {
			return nil, nil, nil, err
		}
	}
	for i, q := range parsed {
		res, err := sparql.Eval(st, q, sparql.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		if resultsCanon(res, len(q.OrderBy) > 0) == before[i] {
			kept = append(kept, qs[i])
			answers = append(answers, before[i])
			ordered = append(ordered, len(q.OrderBy) > 0)
		}
	}
	return kept, answers, ordered, nil
}
