package endpoint

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

func testStore(t testing.TB, n int) *store.Store {
	t.Helper()
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	for i := 0; i < n; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
		s.MustAdd(rdf.NewTriple(subj, typ, person))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/name"),
			rdf.NewLangLiteral(fmt.Sprintf("Person %d", i), "en")))
	}
	return s
}

func TestLocalQueryBasic(t *testing.T) {
	ep := NewLocal("test", testStore(t, 10), Limits{})
	res, err := ep.Query(context.Background(), `SELECT ?s WHERE { ?s a <http://x/Person> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(res.Rows))
	}
	st := ep.Stats()
	if st.Queries != 1 || st.Rows != 10 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLocalParseError(t *testing.T) {
	ep := NewLocal("test", testStore(t, 1), Limits{})
	if _, err := ep.Query(context.Background(), "garbage"); err == nil {
		t.Error("expected parse error")
	}
}

func TestLocalTimeoutBudget(t *testing.T) {
	ep := NewLocal("test", testStore(t, 100), Limits{MaxIntermediateRows: 20})
	// A join query pays full price per intermediate row and exceeds the
	// budget on this store (100 + 100 rows).
	_, err := ep.Query(context.Background(),
		`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if ep.Stats().Timeouts != 1 {
		t.Errorf("timeouts = %d", ep.Stats().Timeouts)
	}
	// A narrow query stays under the budget.
	if _, err := ep.Query(context.Background(),
		`SELECT ?n WHERE { <http://x/p5> <http://x/name> ?n . }`); err != nil {
		t.Errorf("narrow query failed: %v", err)
	}
}

func TestLocalPaginationAvoidsTimeout(t *testing.T) {
	// The Section 5 scenario: the full scan times out, but OFFSET/LIMIT
	// pages fit the budget. Pagination applies after evaluation in our
	// engine, so the budget must be on final rows for this test; the
	// narrow per-class queries below model the hierarchy descent instead.
	ep := NewLocal("test", testStore(t, 50), Limits{MaxIntermediateRows: 2})
	// Even discounted, the full sweep (100 triples → 4 effective rows)
	// exceeds a budget of 2.
	_, err := ep.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("full scan should time out, got %v", err)
	}
	res, err := ep.Query(context.Background(),
		`SELECT ?n WHERE { ?s <http://x/name> ?n . } LIMIT 10`)
	if err != nil {
		t.Fatalf("typed page query failed: %v", err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("page rows = %d", len(res.Rows))
	}
}

func TestLocalRejection(t *testing.T) {
	ep := NewLocal("test", testStore(t, 100), Limits{RejectEstimateAbove: 50})
	_, err := ep.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if ep.Stats().Rejected != 1 {
		t.Errorf("rejected = %d", ep.Stats().Rejected)
	}
}

func TestLocalContextCancel(t *testing.T) {
	ep := NewLocal("test", testStore(t, 5), Limits{Latency: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ep.Query(ctx, `SELECT ?s WHERE { ?s a <http://x/Person> . }`)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestLocalLatency(t *testing.T) {
	ep := NewLocal("test", testStore(t, 1), Limits{Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := ep.Query(context.Background(), `SELECT ?s WHERE { ?s a <http://x/Person> . }`); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("latency not applied: %v", d)
	}
}

func TestResetStats(t *testing.T) {
	ep := NewLocal("test", testStore(t, 1), Limits{})
	_, _ = ep.Query(context.Background(), `SELECT ?s WHERE { ?s a <http://x/Person> . }`)
	ep.ResetStats()
	if st := ep.Stats(); st.Queries != 0 || st.Rows != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	local := NewLocal("local", testStore(t, 7), Limits{})
	srv := httptest.NewServer(Handler(local))
	defer srv.Close()

	client := NewClient(srv.URL)
	if client.Name() != srv.URL {
		t.Errorf("Name = %q", client.Name())
	}
	res, err := client.Query(context.Background(),
		`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	// Terms must survive the JSON round trip with kind and lang intact.
	for _, row := range res.Rows {
		if !row["s"].IsIRI() {
			t.Errorf("s = %+v, want IRI", row["s"])
		}
		if row["n"].Lang != "en" {
			t.Errorf("n = %+v, want lang en", row["n"])
		}
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	local := NewLocal("local", testStore(t, 100), Limits{MaxIntermediateRows: 10})
	srv := httptest.NewServer(Handler(local))
	defer srv.Close()
	client := NewClient(srv.URL)

	_, err := client.Query(context.Background(),
		`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("timeout not propagated over HTTP: %v", err)
	}
	_, err = client.Query(context.Background(), `not sparql`)
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Errorf("parse error mapping wrong: %v", err)
	}
}

func TestHTTPRejectionMapping(t *testing.T) {
	local := NewLocal("local", testStore(t, 100), Limits{RejectEstimateAbove: 5})
	srv := httptest.NewServer(Handler(local))
	defer srv.Close()
	client := NewClient(srv.URL)
	_, err := client.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`)
	if !errors.Is(err, ErrRejected) {
		t.Errorf("rejection not propagated: %v", err)
	}
}

func TestHTTPGetAndMissingQuery(t *testing.T) {
	local := NewLocal("local", testStore(t, 3), Limits{})
	srv := httptest.NewServer(Handler(local))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?query=" + "SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20a%20%3Chttp%3A%2F%2Fx%2FPerson%3E%20.%20%7D")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing query status = %d", resp.StatusCode)
	}
}

func TestHTTPTypedLiteralRoundTrip(t *testing.T) {
	s := store.New()
	s.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/age"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger)))
	srv := httptest.NewServer(Handler(NewLocal("l", s, Limits{})))
	defer srv.Close()
	res, err := NewClient(srv.URL).Query(context.Background(),
		`SELECT ?v WHERE { <http://x/a> <http://x/age> ?v . }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0]["v"]; got.Datatype != rdf.XSDInteger || got.Value != "42" {
		t.Errorf("typed literal = %+v", got)
	}
}

// TestHTTPEpochProtocol pins the wire form of the epoch extension:
// `GET /epoch` returns the decimal epoch, query responses carry the
// EpochHeader, the probe tracks store mutations, and Client.Epoch reads
// it all back through the Epoched interface.
func TestHTTPEpochProtocol(t *testing.T) {
	st := testStore(t, 3)
	local := NewLocal("local", st, Limits{})
	srv := httptest.NewServer(NewMux(local))
	defer srv.Close()

	client := NewClient(srv.URL + "/sparql")
	e1, ok := client.Epoch(context.Background())
	if !ok {
		t.Fatal("Client.Epoch failed against an Epoched server")
	}
	localEpoch, _ := local.Epoch(context.Background())
	if e1 != localEpoch {
		t.Fatalf("probe epoch = %d, local = %d", e1, localEpoch)
	}

	// Query responses carry the header.
	resp, err := srv.Client().Get(srv.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s a <http://x/Person> . }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(EpochHeader); got != fmt.Sprint(e1) {
		t.Errorf("%s = %q, want %d", EpochHeader, got, e1)
	}

	// A mutation moves the probed epoch.
	st.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/z"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("v")))
	e2, ok := client.Epoch(context.Background())
	if !ok || e2 <= e1 {
		t.Fatalf("epoch after mutation = (%d, %v), want > %d", e2, ok, e1)
	}
}

// TestHTTPEpochUnknown pins the fallback: a server over a non-Epoched
// endpoint answers the probe 404 and Client.Epoch reports unknown.
func TestHTTPEpochUnknown(t *testing.T) {
	inner := NewLocal("inner", testStore(t, 1), Limits{})
	flaky := NewFlaky(inner, 0, 0, 1) // Flaky does not implement Epoched
	srv := httptest.NewServer(NewMux(flaky))
	defer srv.Close()
	if _, ok := NewClient(srv.URL + "/sparql").Epoch(context.Background()); ok {
		t.Fatal("Epoch reported known for a non-Epoched endpoint")
	}
	// And against a server that isn't there at all.
	srv.Close()
	if _, ok := NewClient(srv.URL + "/sparql").Epoch(context.Background()); ok {
		t.Fatal("Epoch reported known for a dead server")
	}
}

// TestExactEstimateAdmission pins the admission boundary now that the
// estimate is the planner's driving-scan cost: a query whose cheapest
// first scan touches exactly the threshold is admitted, one row more is
// rejected. The estimate for `?s a Person` is precisely the number of
// Person instances, so the boundary is sharp — no inflation margin on
// either side.
func TestExactEstimateAdmission(t *testing.T) {
	const n = 40
	ep := NewLocal("edge", testStore(t, n), Limits{RejectEstimateAbove: n})
	q := `SELECT ?s WHERE { ?s a <http://x/Person> . }`
	if _, err := ep.Query(context.Background(), q); err != nil {
		t.Fatalf("estimate == threshold must be admitted: %v", err)
	}
	// Two patterns of n rows each: only the first drives a scan (the
	// second becomes a per-row probe), so the cost is n, not 2n.
	q2 := `SELECT ?s WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?o . }`
	if _, err := ep.Query(context.Background(), q2); err != nil {
		t.Fatalf("join driven by an at-threshold scan must be admitted: %v", err)
	}
	tight := NewLocal("tight", testStore(t, n), Limits{RejectEstimateAbove: n - 1})
	if _, err := tight.Query(context.Background(), q); !errors.Is(err, ErrRejected) {
		t.Fatalf("estimate one above threshold must be rejected, got %v", err)
	}
	if _, err := tight.Query(context.Background(), q2); !errors.Is(err, ErrRejected) {
		t.Fatalf("join whose cheapest driving scan exceeds the threshold must be rejected, got %v", err)
	}
}

// TestAdmissionUsesPlannedOrder pins that admission control costs the
// planner's post-reorder driving scan, not the query as written: a cheap
// query whose textual first pattern is a full sweep is admitted, because
// the planner runs the selective pattern first and the sweep becomes a
// per-row probe. The old textual-sum estimate rejected exactly this
// query shape.
func TestAdmissionUsesPlannedOrder(t *testing.T) {
	const n = 40
	// Threshold 5: far below the 2n-triple sweep and the n name rows,
	// but above the single row matched by the constant-object pattern.
	ep := NewLocal("planned", testStore(t, n), Limits{RejectEstimateAbove: 5})
	q := `SELECT ?p WHERE { ?s ?p ?o . ?s <http://x/name> "Person 5"@en . }`
	res, err := ep.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("cheap query written sweep-first must be admitted: %v", err)
	}
	if len(res.Rows) != 2 { // p5 has a type triple and a name triple
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// The same sweep without the selective companion is still rejected:
	// there is no cheaper scan for the planner to drive with.
	if _, err := ep.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o . }`); !errors.Is(err, ErrRejected) {
		t.Fatalf("bare sweep must still be rejected, got %v", err)
	}
}

// TestDefaultLimitsAdmission pins the DefaultLimits contract: the
// calibrated threshold value, and that ordinary workloads pass while a
// store larger than the threshold is refused a full sweep.
func TestDefaultLimitsAdmission(t *testing.T) {
	if DefaultRejectEstimate != 100_000 {
		t.Fatalf("DefaultRejectEstimate = %d, want 100000", DefaultRejectEstimate)
	}
	if got := DefaultLimits().RejectEstimateAbove; got != DefaultRejectEstimate {
		t.Fatalf("DefaultLimits().RejectEstimateAbove = %d, want %d", got, DefaultRejectEstimate)
	}
	if DefaultLimits().MaxIntermediateRows != 0 || DefaultLimits().Latency != 0 {
		t.Fatal("DefaultLimits must only set admission control")
	}
	ep := NewLocal("default", testStore(t, 100), DefaultLimits())
	if _, err := ep.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o . }`); err != nil {
		t.Fatalf("small sweep must be admitted under DefaultLimits: %v", err)
	}

	// 60k subjects x 2 triples > 100k: build via the bulk loader and
	// check the full sweep is rejected with its exact cost.
	big := store.New()
	l := store.NewBulkLoader(big)
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI("http://x/Person")
	for i := 0; i < 60_000; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i))
		l.MustAdd(rdf.NewTriple(subj, typ, person))
		l.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/name"),
			rdf.NewLangLiteral(fmt.Sprintf("Person %d", i), "en")))
	}
	l.Commit()
	bigEP := NewLocal("big", big, DefaultLimits())
	if _, err := bigEP.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o . }`); !errors.Is(err, ErrRejected) {
		t.Fatalf("120k-row sweep must be rejected under DefaultLimits, got %v", err)
	}
	// A selective query over the same large store is still admitted.
	q := fmt.Sprintf(`SELECT ?o WHERE { <http://x/p%d> <http://x/name> ?o . }`, 31_337)
	if _, err := bigEP.Query(context.Background(), q); err != nil {
		t.Fatalf("selective query must be admitted under DefaultLimits: %v", err)
	}
}
