// Package webapi exposes a sapphire.Client as the JSON HTTP API served
// by cmd/sapphire-server — the interface the paper's web UI talks to
// (Figure 1's client ↔ Sapphire server arrows):
//
//	GET  /complete?term=...        QCM auto-completions
//	POST /query    (SPARQL body)   federated execution
//	POST /suggest  (SPARQL body)   QSM suggestions
//	POST /run      (SPARQL body)   answers + suggestions
//	GET  /stats                    initialization statistics
//
// The POST routes read and fail the way the SPARQL endpoint does
// (endpoint.ReadQuery, endpoint.WriteError): a body over
// endpoint.MaxQueryBytes is refused 413 "too_large", never truncated;
// failures answer parse 400, timeout 503, rejected 429, internal 500,
// with the JSON error envelope for callers that accept JSON. Other
// methods on them get 405.
package webapi

import (
	"context"
	"encoding/json"
	"net/http"

	"sapphire"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
)

// Handler returns the API mux over a client.
func Handler(client *sapphire.Client) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		term := r.URL.Query().Get("term")
		writeJSON(w, completionsJSON(client.Complete(term)))
	})
	mux.HandleFunc("POST /query", postQuery(func(ctx context.Context, query string) (any, error) {
		res, err := client.Query(ctx, query)
		if err != nil {
			return nil, err
		}
		return ResultsJSON(res), nil
	}))
	mux.HandleFunc("POST /suggest", postQuery(func(ctx context.Context, query string) (any, error) {
		sugs, err := client.Suggest(ctx, query)
		if err != nil {
			return nil, err
		}
		return SuggestionsJSON(sugs), nil
	}))
	mux.HandleFunc("POST /run", postQuery(func(ctx context.Context, query string) (any, error) {
		res, sugs, err := client.Run(ctx, query)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"results":     ResultsJSON(res),
			"suggestions": SuggestionsJSON(sugs),
		}, nil
	}))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, statsResponse{
			InitStats: client.Stats(),
			Serving:   client.ServingStats(r.Context()),
		})
	})
	return mux
}

// postQuery adapts an action on the SPARQL query in a POST body into a
// route handler that answers the action's value as JSON.
func postQuery(do func(ctx context.Context, query string) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		query, err := endpoint.ReadQuery(w, r)
		var out any
		if err == nil {
			out, err = do(r.Context(), query)
		}
		if err != nil {
			endpoint.WriteError(w, r, err)
			return
		}
		writeJSON(w, out)
	}
}

// statsResponse is the /stats payload: the initialization statistics
// inlined at the top level (unchanged wire shape for existing clients)
// plus the live serving counters — federation request count, member
// epochs, and result-cache hit/miss/evict/coalesced numbers — under
// "serving".
type statsResponse struct {
	sapphire.InitStats
	Serving sapphire.ServingStats `json:"serving"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// ResultsJSON renders a result set for the UI: vars plus rows of
// variable → rendered term.
func ResultsJSON(res *sapphire.Results) map[string]any {
	rows := make([]map[string]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		m := make(map[string]string, len(row))
		for v, t := range row {
			m[v] = renderTerm(t)
		}
		rows = append(rows, m)
	}
	return map[string]any{"vars": res.Vars, "rows": rows}
}

func renderTerm(t rdf.Term) string {
	if t.IsIRI() {
		return t.Value
	}
	return t.String()
}

// SuggestionsJSON renders QSM suggestions with the one-change-at-a-time
// message of Section 4.
func SuggestionsJSON(sugs []sapphire.Suggestion) []map[string]any {
	out := make([]map[string]any, 0, len(sugs))
	for _, s := range sugs {
		out = append(out, map[string]any{
			"kind":    s.Kind.String(),
			"message": s.Message(),
			"query":   s.Query.String(),
			"answers": s.Answers,
		})
	}
	return out
}

func completionsJSON(comps []sapphire.Completion) []map[string]any {
	out := make([]map[string]any, 0, len(comps))
	for _, c := range comps {
		out = append(out, map[string]any{
			"text":        c.Text,
			"isPredicate": c.IsPredicate,
			"fromTree":    c.FromTree,
		})
	}
	return out
}
