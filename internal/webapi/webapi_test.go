package webapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sapphire"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
)

var shared *httptest.Server

func apiServer(t testing.TB) *httptest.Server {
	t.Helper()
	if shared != nil {
		return shared
	}
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	client := sapphire.New(sapphire.Defaults())
	if err := client.RegisterEndpoint(context.Background(), ep); err != nil {
		t.Fatal(err)
	}
	shared = httptest.NewServer(Handler(client))
	return shared
}

func getJSON(t testing.TB, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t testing.TB, url, body string, into any) int {
	t.Helper()
	resp, err := http.Post(url, "application/sparql-query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestCompleteEndpoint(t *testing.T) {
	srv := apiServer(t)
	var comps []map[string]any
	if code := getJSON(t, srv.URL+"/complete?term=Kerouac", &comps); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(comps) == 0 {
		t.Fatal("no completions over HTTP")
	}
	found := false
	for _, c := range comps {
		if c["text"] == "Jack Kerouac" {
			found = true
		}
	}
	if !found {
		t.Errorf("completions = %v", comps)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := apiServer(t)
	var out map[string]any
	code := postJSON(t, srv.URL+"/query",
		`SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	row := rows[0].(map[string]any)
	if row["w"] != "http://dbpedia.org/resource/Rita_Wilson" {
		t.Errorf("row = %v", row)
	}
}

func TestRunEndpointWithSuggestions(t *testing.T) {
	srv := apiServer(t)
	var out struct {
		Results     map[string]any   `json:"results"`
		Suggestions []map[string]any `json:"suggestions"`
	}
	code := postJSON(t, srv.URL+"/run",
		`SELECT ?p WHERE { ?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en . }`, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Suggestions) == 0 {
		t.Fatal("no suggestions in /run response")
	}
	s := out.Suggestions[0]
	msg, _ := s["message"].(string)
	if !strings.Contains(msg, "instead of") && !strings.Contains(msg, "relaxed") {
		t.Errorf("message = %q", msg)
	}
	if _, ok := s["answers"].(float64); !ok {
		t.Errorf("answers missing: %v", s)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	srv := apiServer(t)
	var sugs []map[string]any
	code := postJSON(t, srv.URL+"/suggest",
		`SELECT ?p WHERE { ?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en . }`, &sugs)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(sugs) == 0 {
		t.Error("no suggestions")
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := apiServer(t)
	var stats map[string]any
	if code := getJSON(t, srv.URL+"/stats", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats["PredicateCount"].(float64) == 0 {
		t.Errorf("stats = %v", stats)
	}
}

func TestErrorPaths(t *testing.T) {
	srv := apiServer(t)
	// GET on a POST-only route.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query = %d", resp.StatusCode)
	}
	// Empty body.
	var out any
	if code := postJSON(t, srv.URL+"/query", "  ", &out); code != http.StatusBadRequest {
		t.Errorf("empty body = %d", code)
	}
	// Unparseable query.
	if code := postJSON(t, srv.URL+"/query", "garbage", &out); code != http.StatusBadRequest {
		t.Errorf("bad query = %d", code)
	}
	if code := postJSON(t, srv.URL+"/suggest", "garbage", &out); code != http.StatusBadRequest {
		t.Errorf("bad suggest = %d", code)
	}
	if code := postJSON(t, srv.URL+"/run", "garbage", &out); code != http.StatusBadRequest {
		t.Errorf("bad run = %d", code)
	}

	// JSON-accepting callers get the endpoint's error envelope. The
	// oversized body is a valid query followed by a comment up to and
	// past endpoint.MaxQueryBytes, so a reader that silently truncated
	// it would answer the cut query instead of refusing it.
	tooLarge := `SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }` +
		"\n#" + strings.Repeat("x", endpoint.MaxQueryBytes)
	cases := []struct {
		route, body string
		status      int
		code        string
	}{
		{"/query", "  ", http.StatusBadRequest, endpoint.CodeParse},
		{"/query", "garbage", http.StatusBadRequest, endpoint.CodeParse},
		{"/suggest", "garbage", http.StatusBadRequest, endpoint.CodeParse},
		{"/run", "garbage", http.StatusBadRequest, endpoint.CodeParse},
		{"/run", tooLarge, http.StatusRequestEntityTooLarge, endpoint.CodeTooLarge},
	}
	for _, tc := range cases {
		if status, code := postEnvelope(t, srv.URL+tc.route, tc.body); status != tc.status || code != tc.code {
			t.Errorf("%s with a %d-byte body = %d %q, want %d %q", tc.route, len(tc.body), status, code, tc.status, tc.code)
		}
	}
}

// postEnvelope POSTs body to url as a JSON-accepting client and returns
// the status and the error envelope's code ("" when there is none).
func postEnvelope(t *testing.T, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Error.Code
}

// TestMemberRejectionIs429: a member whose admission limit refuses the
// query surfaces through /query as 429 "rejected", not a caller error.
func TestMemberRejectionIs429(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	ctx := context.Background()
	// Initialize against the unlimited member, then serve from its cache
	// over the same data behind an admission limit.
	full := sapphire.New(sapphire.Defaults())
	if err := full.RegisterEndpoint(ctx, endpoint.NewLocal("member", d.Store, endpoint.Limits{})); err != nil {
		t.Fatal(err)
	}
	var cache bytes.Buffer
	if err := full.SaveEndpointCache("member", &cache); err != nil {
		t.Fatal(err)
	}
	limited := sapphire.New(sapphire.Defaults())
	member := endpoint.NewLocal("member", d.Store, endpoint.Limits{RejectEstimateAbove: 10})
	if err := limited.RegisterEndpointWithCache(member, &cache); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(limited))
	defer srv.Close()
	code, ec := postEnvelope(t, srv.URL+"/query", `SELECT ?s ?o WHERE { ?s <http://dbpedia.org/ontology/name> ?o . }`)
	if code != http.StatusTooManyRequests || ec != endpoint.CodeRejected {
		t.Errorf("/query over a rejecting member = %d %q, want 429 %q", code, ec, endpoint.CodeRejected)
	}
}
