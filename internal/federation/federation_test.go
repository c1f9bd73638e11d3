package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// twoEndpoints builds a federation whose data is split: people live on
// endpoint A, cities on endpoint B, with cross-links (the LOD-cloud
// shape Sapphire federates over).
func twoEndpoints(t testing.TB) (*Federation, *endpoint.Local, *endpoint.Local) {
	t.Helper()
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	en := func(x string) rdf.Term { return rdf.NewLangLiteral(x, "en") }
	typ := rdf.NewIRI(rdf.RDFType)

	people := store.New()
	for i, name := range []string{"Alice", "Bob", "Carol"} {
		s := iri(fmt.Sprintf("person%d", i))
		people.MustAdd(rdf.NewTriple(s, typ, iri("Person")))
		people.MustAdd(rdf.NewTriple(s, iri("name"), en(name)))
		people.MustAdd(rdf.NewTriple(s, iri("livesIn"), iri("city"+fmt.Sprint(i%2))))
	}
	cities := store.New()
	for i, name := range []string{"Springfield", "Shelbyville"} {
		c := iri(fmt.Sprintf("city%d", i))
		cities.MustAdd(rdf.NewTriple(c, typ, iri("City")))
		cities.MustAdd(rdf.NewTriple(c, iri("cityName"), en(name)))
	}
	a := endpoint.NewLocal("people", people, endpoint.Limits{})
	b := endpoint.NewLocal("cities", cities, endpoint.Limits{})
	return New(a, b), a, b
}

func TestFederatedSingleEndpointQuery(t *testing.T) {
	fed, _, _ := twoEndpoints(t)
	res, err := fed.Query(context.Background(),
		`SELECT ?n WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestFederatedCrossEndpointJoin(t *testing.T) {
	fed, _, _ := twoEndpoints(t)
	// Join spans both endpoints: livesIn on A, cityName on B.
	res, err := fed.Query(context.Background(), `SELECT ?n ?cn WHERE {
		?s <http://x/name> ?n .
		?s <http://x/livesIn> ?c .
		?c <http://x/cityName> ?cn .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v, want 3", res.Sorted())
	}
	// Alice (person0) lives in city0 Springfield.
	found := false
	for _, row := range res.Rows {
		if row["n"].Value == "Alice" && row["cn"].Value == "Springfield" {
			found = true
		}
	}
	if !found {
		t.Errorf("Alice/Springfield missing: %v", res.Sorted())
	}
}

func TestSourceSelectionSkipsIrrelevantMembers(t *testing.T) {
	fed, a, b := twoEndpoints(t)
	_, err := fed.Query(context.Background(),
		`SELECT ?cn WHERE { ?c <http://x/cityName> ?cn . }`)
	if err != nil {
		t.Fatal(err)
	}
	aq, bq := a.Stats().Queries, b.Stats().Queries
	// Both get one probe; only B gets the pattern fetch.
	if aq != 1 {
		t.Errorf("people endpoint served %d queries, want 1 (probe only)", aq)
	}
	if bq != 2 {
		t.Errorf("cities endpoint served %d queries, want 2 (probe + fetch)", bq)
	}
	// Second query against the same predicate reuses the source cache;
	// pattern cache makes it free entirely.
	_, err = fed.Query(context.Background(),
		`SELECT ?cn WHERE { ?c <http://x/cityName> ?cn . }`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats().Queries != aq {
		t.Errorf("probe repeated on irrelevant member")
	}
	if b.Stats().Queries != bq {
		t.Errorf("pattern not memoized: %d", b.Stats().Queries)
	}
}

func TestResetCachesForcesRefetch(t *testing.T) {
	fed, _, b := twoEndpoints(t)
	ctx := context.Background()
	q := `SELECT ?cn WHERE { ?c <http://x/cityName> ?cn . }`
	if _, err := fed.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	before := b.Stats().Queries
	fed.ResetCaches()
	if _, err := fed.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if b.Stats().Queries != before+1 {
		t.Errorf("refetch count = %d, want %d", b.Stats().Queries, before+1)
	}
}

// TestEpochDrivenInvalidation pins the tentpole story at the federation
// layer: when a member's store mutates, the next federated query sees
// the new data with no ResetCaches call — the member epoch moved, so
// the pattern cache and source selection rebuild themselves.
func TestEpochDrivenInvalidation(t *testing.T) {
	fed, a, b := twoEndpoints(t)
	ctx := context.Background()
	q := `SELECT ?cn WHERE { ?c <http://x/cityName> ?cn . }`
	res, err := fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}

	// Mutate member B directly; no manual cache reset anywhere.
	b.Store().MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/city2"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("Ogdenville", "en")))
	res, err = fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("after mutation rows = %d, want 3 (stale pattern cache?)", len(res.Rows))
	}

	// Source selection must also rebuild: member A never had cityName,
	// so the cached FedX source list for that predicate excludes it. A
	// gains its first cityName triple; the epoch check must re-probe
	// and route the pattern to A too.
	a.Store().MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/cityA"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("Springfield A", "en")))
	res, err = fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("after source change rows = %d, want 4 (stale source cache?)", len(res.Rows))
	}
}

// TestEpochInvalidationOverHTTP runs the same story with the member
// behind a real HTTP server: the federation's freshness check rides the
// `GET /epoch` probe and the member's mutation is observed remotely.
func TestEpochInvalidationOverHTTP(t *testing.T) {
	st := store.New()
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/c1"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("Springfield", "en")))
	srv := httptest.NewServer(endpoint.NewMux(endpoint.NewLocal("remote", st, endpoint.Limits{})))
	defer srv.Close()

	fed := New(endpoint.NewClient(srv.URL + "/sparql"))
	ctx := context.Background()
	q := `SELECT ?cn WHERE { ?c <http://x/cityName> ?cn . }`
	res, err := fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/c2"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("Shelbyville", "en")))
	res, err = fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("after remote mutation rows = %d, want 2", len(res.Rows))
	}
}

// TestEpochPollDisabled pins SetEpochPoll(-1): freshness checks stop,
// the pattern cache keeps serving stale data (the documented trade),
// and manual ResetCaches remains the escape hatch.
func TestEpochPollDisabled(t *testing.T) {
	fed, _, b := twoEndpoints(t)
	fed.SetEpochPoll(-1)
	ctx := context.Background()
	q := `SELECT ?cn WHERE { ?c <http://x/cityName> ?cn . }`
	if _, err := fed.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	b.Store().MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/city2"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("Ogdenville", "en")))
	res, err := fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("polling disabled but cache refreshed itself: %d rows", len(res.Rows))
	}
	fed.ResetCaches()
	res, err = fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("after manual reset rows = %d, want 3", len(res.Rows))
	}
}

// flakyEpoch wraps an endpoint and makes its epoch probe fail on
// demand, simulating a member whose data is fine but whose `GET
// /epoch` times out.
type flakyEpoch struct {
	*endpoint.Local
	fail bool
}

func (f *flakyEpoch) Epoch(ctx context.Context) (uint64, bool) {
	if f.fail {
		return 0, false
	}
	return f.Local.Epoch(ctx)
}

// TestEpochProbeFailureDoesNotFlap pins that a transient probe failure
// keeps the member's last-known epoch in the fingerprint: the caches
// survive both the failure and the recovery instead of being dropped
// twice for a member whose data never changed.
func TestEpochProbeFailureDoesNotFlap(t *testing.T) {
	st := store.New()
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/c1"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("Springfield", "en")))
	member := &flakyEpoch{Local: endpoint.NewLocal("m", st, endpoint.Limits{})}
	fed := New(member)
	ctx := context.Background()
	q := `SELECT ?cn WHERE { ?c <http://x/cityName> ?cn . }`
	if _, err := fed.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	baseline := member.Stats().Queries

	member.fail = true // probe blips; data unchanged
	if _, err := fed.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	member.fail = false // probe recovers
	if _, err := fed.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := member.Stats().Queries; got != baseline {
		t.Fatalf("probe flap caused refetches: member served %d queries, want %d", got, baseline)
	}

	// A real mutation after recovery still invalidates.
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/c2"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("Shelbyville", "en")))
	res, err := fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-recovery mutation not observed: %d rows", len(res.Rows))
	}
}

// TestStaleFingerprintFetchNotCached pins the guard on the cache fill
// path: a fetch that began under an older member-epoch fingerprint
// (i.e. raced a mutation plus a concurrent invalidation) returns its
// result but must not re-plant it into the pattern or source caches —
// epoch comparison would never evict it.
func TestStaleFingerprintFetchNotCached(t *testing.T) {
	fed, _, b := twoEndpoints(t)
	ctx := context.Background()
	fp := fed.checkEpochs(ctx)

	// Simulate the race: the fetch below carries the pre-mutation
	// fingerprint while the federation has already observed the new one.
	b.Store().MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/city9"),
		rdf.NewIRI("http://x/cityName"), rdf.NewLangLiteral("North Haverbrook", "en")))
	if cur := fed.checkEpochs(ctx); cur == fp {
		t.Fatal("fingerprint did not move on mutation")
	}

	cn := rdf.NewIRI("http://x/cityName")
	triples, err := fed.fetchPattern(ctx, fp, rdf.Term{}, cn, rdf.Term{})
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 3 {
		t.Fatalf("fetch rows = %d, want 3", len(triples))
	}
	fed.mu.Lock()
	_, patCached := fed.patternCache[patternKey(rdf.Term{}, cn, rdf.Term{})]
	_, srcCached := fed.sourceCache[cn.Value]
	fed.mu.Unlock()
	if patCached || srcCached {
		t.Fatalf("stale-fingerprint fetch was cached (pattern=%v source=%v)", patCached, srcCached)
	}

	// The same fetch under the current fingerprint does cache.
	cur := fed.checkEpochs(ctx)
	if _, err := fed.fetchPattern(ctx, cur, rdf.Term{}, cn, rdf.Term{}); err != nil {
		t.Fatal(err)
	}
	fed.mu.Lock()
	_, patCached = fed.patternCache[patternKey(rdf.Term{}, cn, rdf.Term{})]
	fed.mu.Unlock()
	if !patCached {
		t.Fatal("current-fingerprint fetch was not cached")
	}
}

func TestFederatedDuplicateElimination(t *testing.T) {
	// The same triple on two members must not double results.
	s1, s2 := store.New(), store.New()
	tr := rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("v"))
	s1.MustAdd(tr)
	s2.MustAdd(tr)
	fed := New(endpoint.NewLocal("m1", s1, endpoint.Limits{}),
		endpoint.NewLocal("m2", s2, endpoint.Limits{}))
	res, err := fed.Query(context.Background(), `SELECT ?o WHERE { ?s <http://x/p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d, want 1 after dedup", len(res.Rows))
	}
}

func TestFederatedErrorPropagation(t *testing.T) {
	st := store.New()
	for i := 0; i < 200; i++ {
		st.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)),
			rdf.NewIRI("http://x/p"), rdf.NewLiteral(fmt.Sprint(i))))
	}
	fed := New(endpoint.NewLocal("m", st, endpoint.Limits{MaxIntermediateRows: 3}))
	_, err := fed.Query(context.Background(), `SELECT ?o WHERE { ?s <http://x/p> ?o . }`)
	if !errors.Is(err, endpoint.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}

func TestQueriesIssuedCounter(t *testing.T) {
	fed, _, _ := twoEndpoints(t)
	if fed.QueriesIssued() != 0 {
		t.Fatal("counter should start at 0")
	}
	_, err := fed.Query(context.Background(),
		`SELECT ?n WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if fed.QueriesIssued() < 2 {
		t.Errorf("QueriesIssued = %d, want probes + fetch", fed.QueriesIssued())
	}
}

func TestFederatedVariablePredicate(t *testing.T) {
	fed, _, _ := twoEndpoints(t)
	res, err := fed.Query(context.Background(),
		`SELECT DISTINCT ?p WHERE { <http://x/person0> ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("predicates = %v, want 3", res.Sorted())
	}
}

func TestFederatedAggregateAcrossMembers(t *testing.T) {
	fed, _, _ := twoEndpoints(t)
	res, err := fed.Query(context.Background(),
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s a <http://x/Person> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["n"].Value != "3" {
		t.Errorf("count = %s, want 3", res.Rows[0]["n"].Value)
	}
}

// TestJoinThroughLiteralVariable pins the plan shape that binds a
// literal-valued variable in subject position (?d is a birth date, then
// the subject of spouse). No triple can match such a pattern, so the
// federation must answer it empty instead of shipping the member a
// query it rejects as unparseable — over a local member and over HTTP,
// with the answers the reference evaluator gives on the store.
func TestJoinThroughLiteralVariable(t *testing.T) {
	iri := func(x string) rdf.Term { return rdf.NewIRI("http://x/" + x) }
	st := store.New()
	for i, date := range []string{"1917-05-29", "1929-07-28"} {
		r := iri(fmt.Sprintf("r%d", i))
		st.MustAdd(rdf.NewTriple(r, iri("birthDate"), rdf.NewTypedLiteral(date, rdf.XSDDate)))
		st.MustAdd(rdf.NewTriple(r, iri("spouse"), iri(fmt.Sprintf("m%d", i))))
	}
	srv := httptest.NewServer(endpoint.Handler(endpoint.NewLocal("remote", st, endpoint.Limits{})))
	defer srv.Close()
	members := map[string]endpoint.Endpoint{
		"local": endpoint.NewLocal("local", st, endpoint.Limits{}),
		"http":  endpoint.NewClient(srv.URL),
	}
	queries := []string{
		`SELECT ?r ?m WHERE { ?r <http://x/birthDate> ?d . ?d <http://x/spouse> ?m . }`,
		`SELECT ?r ?p WHERE { ?r <http://x/birthDate> ?d . ?d ?p ?o . }`,
		`SELECT ?r ?m WHERE { ?r <http://x/birthDate> ?d . OPTIONAL { ?d <http://x/spouse> ?m . } }`,
	}
	for name, m := range members {
		fed := New(m)
		for _, qs := range queries {
			got, err := fed.Query(context.Background(), qs)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, qs, err)
			}
			want, err := sparql.Eval(st, sparql.MustParse(qs), sparql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(got.Sorted()), fmt.Sprint(want.Sorted()); g != w {
				t.Errorf("%s: %s:\n got %s\nwant %s", name, qs, g, w)
			}
		}
	}
}

// servedFederation names a federation so it can serve as an Endpoint.
type servedFederation struct{ *Federation }

func (servedFederation) Name() string { return "federation" }

// countingTransport counts the requests an http.Client sends.
type countingTransport struct{ calls int }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.calls++
	return http.DefaultTransport.RoundTrip(r)
}

// TestParseErrorOverHTTP: a query that does not parse is the caller's
// error at every hop. The federation served over NewMux answers it 400
// "parse", and endpoint.Client, which retries 5xx, sends it only once.
func TestParseErrorOverHTTP(t *testing.T) {
	fed, _, _ := twoEndpoints(t)
	srv := httptest.NewServer(endpoint.NewMux(servedFederation{fed}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/sparql", "application/sparql-query", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /sparql garbage = %d, want 400", resp.StatusCode)
	}

	rt := &countingTransport{}
	client := endpoint.NewClient(srv.URL+"/sparql", endpoint.WithHTTPClient(&http.Client{Transport: rt}))
	_, err = client.Query(context.Background(), "garbage")
	var ae *endpoint.APIError
	if !errors.As(err, &ae) || ae.Code != endpoint.CodeParse || !errors.Is(err, endpoint.ErrParse) {
		t.Errorf("Client.Query(garbage) err = %v, want the %q code", err, endpoint.CodeParse)
	}
	if rt.calls != 1 {
		t.Errorf("Client sent %d requests for an unparsable query, want 1", rt.calls)
	}
}
