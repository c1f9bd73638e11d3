package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sapphire"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
	"sapphire/internal/webapi"
)

// The serving side of the benchmark is the paper's Figure 1 deployment
// on loopback: a member SPARQL endpoint over a durable store, and the
// Sapphire server that registers it over HTTP. Each layer boundary is
// wrapped from outside, through hooks the packages already expose, so
// the serving code itself is the code under test.

// readyInfo is what the serving process reports once both tiers serve.
type readyInfo struct {
	Member  string  `json:"member"`
	Server  string  `json:"server"`
	Control string  `json:"control"`
	IngestS float64 `json:"ingest_s"`
	InitS   float64 `json:"init_s"`
	// InitQueries and InitMemberUs describe bootstrap.Initialize as
	// the member client saw it: queries sent and their median latency.
	InitQueries  int64   `json:"init_queries"`
	InitMemberUs float64 `json:"init_member_us"`
	Triples      int     `json:"triples"`
}

// serverState is the serving side's counters, read between phases.
type serverState struct {
	Local         endpoint.Stats `json:"local"`
	Triples       int            `json:"triples"`
	Epoch         uint64         `json:"epoch"`
	WALBytes      int64          `json:"wal_bytes"`
	RSSBytes      int64          `json:"rss_bytes"`
	MemberQueries int64          `json:"member_queries"`
	EpochProbes   int64          `json:"epoch_probes"`
	RoundTrips    int64          `json:"round_trips"`
	SparqlTrips   int64          `json:"sparql_trips"`
}

// traceDump is the serving side's share of a traced run.
type traceDump struct {
	Spans []Span `json:"spans"`
	// MemberQueries are query strings the member evaluated for traced
	// requests, kept for the in-process sparql replay.
	MemberQueries []string `json:"member_queries"`
}

// tracedLocal decorates the member's endpoint.Local for endpoint.NewMux.
type tracedLocal struct {
	*endpoint.Local
	rec *recorder

	mu       sync.Mutex
	captured []string
}

const maxCaptured = 4000

func (t *tracedLocal) Query(ctx context.Context, q string) (*sparql.Results, error) {
	ctx, end := t.rec.start(ctx, "endpoint.local_query")
	res, err := t.Local.Query(ctx, q)
	end(0)
	if _, ok := traceOf(ctx); ok {
		t.mu.Lock()
		if len(t.captured) < maxCaptured {
			t.captured = append(t.captured, q)
		}
		t.mu.Unlock()
	}
	return res, err
}

// tracedDB decorates *persist.DB as the endpoint.TripleBatcher behind
// POST /add. AddAll takes no context, so the /add route builds one
// tracedDB per request, carrying that request's context.
type tracedDB struct {
	db  *persist.DB
	rec *recorder
	ctx context.Context
}

func (t tracedDB) AddAll(triples []rdf.Triple) error {
	_, end := t.rec.start(t.ctx, "persist.add")
	defer end(0)
	return t.db.AddAll(triples)
}

// memberClient decorates the Sapphire server's endpoint.Client for the
// member. Embedding keeps every optional interface of the client.
type memberClient struct {
	*endpoint.Client
	rec *recorder

	queries atomic.Int64
	probes  atomic.Int64

	// During initialization every member query's latency is kept.
	initOn    atomic.Bool
	initMu    sync.Mutex
	initTimes []time.Duration
}

func (m *memberClient) Query(ctx context.Context, q string) (*sparql.Results, error) {
	m.queries.Add(1)
	ctx, end := m.rec.start(ctx, "federation.member_query")
	t0 := time.Now()
	res, err := m.Client.Query(ctx, q)
	d := time.Since(t0)
	end(0)
	if m.initOn.Load() {
		m.initMu.Lock()
		m.initTimes = append(m.initTimes, d)
		m.initMu.Unlock()
	}
	return res, err
}

func (m *memberClient) Epoch(ctx context.Context) (uint64, bool) {
	m.probes.Add(1)
	ctx, end := m.rec.start(ctx, "federation.epoch_probe")
	defer end(0)
	return m.Client.Epoch(ctx)
}

// countingTransport is the member client's http.RoundTripper: it counts
// round trips and carries the trace across the hop.
type countingTransport struct {
	inner http.RoundTripper
	rec   *recorder

	trips       atomic.Int64
	sparqlTrips atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	if req.URL.Path == "/sparql" {
		c.sparqlTrips.Add(1)
	}
	name := "endpoint.client_roundtrip"
	if req.URL.Path != "/sparql" {
		name = "endpoint.client_probe"
	}
	ctx, end := c.rec.start(req.Context(), name)
	if ref, ok := traceOf(ctx); ok {
		req = req.Clone(ctx)
		setTraceHeader(req.Header, ref)
	}
	resp, err := c.inner.RoundTrip(req)
	if err != nil {
		end(0)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: end}
	return resp, nil
}

// countingBody ends the round-trip span when the body is closed.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// fedEndpoint serves the Sapphire client's federation on the server's
// /sparql route, as cmd/sapphire-server does.
type fedEndpoint struct {
	client *sapphire.Client
	rec    *recorder
}

func (f fedEndpoint) Name() string { return "sapphire-federation" }

func (f fedEndpoint) Query(ctx context.Context, q string) (*sparql.Results, error) {
	ctx, end := f.rec.start(ctx, "federation.query")
	defer end(0)
	return f.client.Query(ctx, q)
}

// traceMiddleware opens a span per traced request on a mux and counts
// the response bytes.
func traceMiddleware(rec *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := refFromHeader(r.Header)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		ctx, end := rec.startRef(r.Context(), name, ref)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(ctx))
		end(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory for the member's durable store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("serve: -dir is required")
	}
	rec := newRecorder(1 << 62)

	// Member endpoint: persist.DB (fsync always) → endpoint.Local with
	// the default limits and result cache → NewMux + /add.
	t0 := time.Now()
	db, _, err := persist.Open(*dir, persist.Options{Fsync: persist.FsyncAlways})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer db.Close()
	if err := db.Ingest(func(s *store.Store) error {
		datagen.GenerateInto(datasetConfig(), s)
		return nil
	}); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	ingest := time.Since(t0)
	limits := endpoint.DefaultLimits()
	limits.CacheBytes = endpoint.DefaultCacheBytes
	local := &tracedLocal{Local: endpoint.NewLocal("member", db.Store(), limits), rec: rec}
	memberMux := endpoint.NewMux(local)
	memberMux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		endpoint.AddHandler(tracedDB{db: db, rec: rec, ctx: r.Context()})(w, r)
	})
	memberURL, stopMember, err := listen(traceMiddleware(rec, "endpoint.mux", memberMux))
	if err != nil {
		return err
	}
	defer stopMember()

	// Sapphire server: a client registered over HTTP to the member, so
	// bootstrap.Initialize runs over the wire → NewMux + webapi.
	tr := &countingTransport{inner: http.DefaultTransport.(*http.Transport).Clone(), rec: rec}
	mc := &memberClient{
		Client: endpoint.NewClient(memberURL+"/sparql", endpoint.WithHTTPClient(&http.Client{Transport: tr})),
		rec:    rec,
	}
	mc.initOn.Store(true)
	client := sapphire.New(sapphire.Defaults())
	t1 := time.Now()
	if err := client.RegisterEndpoint(context.Background(), mc); err != nil {
		return err
	}
	initDur := time.Since(t1)
	mc.initOn.Store(false)
	mc.initMu.Lock()
	initTimes := mc.initTimes
	mc.initMu.Unlock()
	serverMux := endpoint.NewMux(fedEndpoint{client: client, rec: rec})
	serverMux.Handle("/", webapi.Handler(client))
	serverURL, stopServer, err := listen(traceMiddleware(rec, "webapi.handler", serverMux))
	if err != nil {
		return err
	}
	defer stopServer()

	control := http.NewServeMux()
	control.HandleFunc("/state", func(w http.ResponseWriter, r *http.Request) {
		st := db.Store()
		writeJSONTo(w, serverState{
			Local:         local.Stats(),
			Triples:       st.Len(),
			Epoch:         st.Epoch(),
			WALBytes:      db.WALSize(),
			RSSBytes:      selfRSS(),
			MemberQueries: mc.queries.Load(),
			EpochProbes:   mc.probes.Load(),
			RoundTrips:    tr.trips.Load(),
			SparqlTrips:   tr.sparqlTrips.Load(),
		})
	})
	control.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		local.mu.Lock()
		captured := local.captured
		local.captured = nil
		local.mu.Unlock()
		writeJSONTo(w, traceDump{Spans: rec.take(), MemberQueries: captured})
	})
	controlURL, stopControl, err := listen(control)
	if err != nil {
		return err
	}
	defer stopControl()

	ready := readyInfo{
		Member: memberURL, Server: serverURL, Control: controlURL,
		IngestS: ingest.Seconds(), InitS: initDur.Seconds(),
		InitQueries: int64(len(initTimes)), InitMemberUs: medianUs(initTimes),
		Triples: db.Store().Len(),
	}
	line, _ := json.Marshal(ready)
	fmt.Printf("READY %s\n", line)

	// Serve until the generator closes stdin or signals.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go func() {
		_, _ = io.Copy(io.Discard, bufio.NewReader(os.Stdin))
		stop()
	}()
	<-ctx.Done()
	return nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}, nil
}

func writeJSONTo(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func medianUs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2].Nanoseconds()) / 1e3
}

// selfRSS reads this process's resident set size from /proc.
func selfRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb int64
		if n, _ := fmt.Sscanf(sc.Text(), "VmRSS: %d kB", &kb); n == 1 {
			return kb << 10
		}
	}
	return 0
}
