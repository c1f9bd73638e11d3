package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of generator connections: the machine's two
// cores, fixed so the offered load does not depend on the host.
const clients = 2

// server is one running serving process.
type server struct {
	once  sync.Once
	cmd   *exec.Cmd
	stdin io.WriteCloser
	dir   string
	ready readyInfo
	setup time.Duration
}

// startServer spawns the serving process and waits until both tiers
// serve; setup is the time from spawn to that point.
func startServer(ctx context.Context, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "serve", "-dir", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, dir: dir}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "READY ")
		if !ok {
			continue
		}
		s.setup = time.Since(t0)
		if err := json.Unmarshal([]byte(line), &s.ready); err != nil {
			s.stop()
			return nil, err
		}
		go func() { _, _ = io.Copy(io.Discard, stdout) }()
		return s, nil
	}
	s.stop()
	return nil, fmt.Errorf("serving process exited before it was ready")
}

// stop ends the serving process, waits for it and removes its store.
// Calls after the first do nothing.
func (s *server) stop() { s.once.Do(s.stopOnce) }

func (s *server) stopOnce() {
	_ = s.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	_ = os.RemoveAll(s.dir)
}

func (s *server) getJSON(path string, v any) error {
	resp, err := http.Get(s.ready.Control + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// setupServers starts the deployment n times, stops all but the last,
// and returns the last with every setup's timings.
func setupServers(ctx context.Context, base string, n int) (*server, []*server, error) {
	var all []*server
	for i := 0; i < n; i++ {
		s, err := startServer(ctx, filepath.Join(base, "db"+strconv.Itoa(i)))
		if err != nil {
			return nil, nil, err
		}
		all = append(all, s)
		if i < n-1 {
			s.stop()
		}
	}
	return all[n-1], all, nil
}

// op is one request the generator sends.
type op struct {
	key    string // what the answer is checked against
	method string
	path   string // path and query string
	body   string
	write  bool
	due    time.Duration // open loop only: offset from the window start
}

// outcome is what the generator saw for one op.
type outcome struct {
	key    string
	write  bool
	traced bool
	req    uint64
	status int
	err    error
	hash   uint64
	// bodyBytes and payload describe a write's request body.
	bodyBytes int
	payload   string
	latency   time.Duration // from due (open loop) or send (closed loop)
	late      time.Duration // open loop: send time minus due time
	sent      time.Time
}

// collector keeps every outcome and one copy of each distinct
// (key, body) pair, so answers can be checked after the window without
// costing the generator CPU during it.
type collector struct {
	seed maphash.Seed

	mu       sync.Mutex
	outcomes []outcome
	bodies   map[string]map[uint64][]byte
}

func newCollector() *collector {
	return &collector{seed: maphash.MakeSeed(), bodies: make(map[string]map[uint64][]byte)}
}

func (c *collector) add(o outcome, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outcomes = append(c.outcomes, o)
	if o.err != nil {
		return
	}
	m := c.bodies[o.key]
	if m == nil {
		m = make(map[uint64][]byte)
		c.bodies[o.key] = m
	}
	if _, ok := m[o.hash]; !ok {
		m[o.hash] = body
	}
}

// loadGen sends ops to the deployment.
type loadGen struct {
	base    string
	http    *http.Client
	col     *collector
	rec     *recorder
	nextReq atomic.Uint64
	// traceEvery traces one op in traceEvery (0: none), interleaving
	// traced and untraced ops so the tracing overhead is measured under
	// the same conditions. Ops are picked by a hash of their request
	// number, so the choice never aligns with a pattern in the stream
	// (every other op repeated, every tenth a write).
	traceEvery uint64
}

func newLoadGen(base string, rec *recorder, traceEvery uint64) *loadGen {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = clients
	tr.MaxIdleConnsPerHost = clients
	return &loadGen{base: base, http: &http.Client{Transport: tr}, col: newCollector(), rec: rec, traceEvery: traceEvery}
}

// do sends one op and records its outcome; start is when it was due.
func (d *loadGen) do(ctx context.Context, o op, start time.Time) {
	req := d.nextReq.Add(1)
	traced := d.traceEvery > 0 && mix64(req)%d.traceEvery == 0
	var body io.Reader
	if o.body != "" {
		body = strings.NewReader(o.body)
	}
	hreq, err := http.NewRequestWithContext(ctx, o.method, d.base+o.path, body)
	if err != nil {
		panic(err) // ops are generated by this program
	}
	if o.method == http.MethodPost {
		hreq.Header.Set("Content-Type", "application/sparql-query")
		if o.write {
			hreq.Header.Set("Content-Type", "application/n-triples")
		}
	}
	hreq.Header.Set("Accept", "application/sparql-results+json, application/json")
	sent := time.Now()
	var end func(int64)
	if traced {
		var tctx context.Context
		tctx, end = d.rec.startRef(ctx, "client."+strings.TrimPrefix(strings.SplitN(o.path, "?", 2)[0], "/"), traceRef{req: req})
		ref, _ := traceOf(tctx)
		setTraceHeader(hreq.Header, ref)
	}
	out := outcome{key: o.key, write: o.write, traced: traced, req: req, late: sent.Sub(start)}
	if o.write {
		out.bodyBytes, out.payload = len(o.body), o.body
	}
	resp, err := d.http.Do(hreq)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
	out.latency = time.Since(start)
	if end != nil {
		end(int64(len(data)))
	}
	out.err = err
	if err == nil {
		out.hash = maphash.Bytes(d.col.seed, data)
	}
	d.col.add(out, data)
}

// closedLoop runs clients workers, each sending its next op when the
// previous one completes, until the window ends. next returns the
// stream's i-th op.
func (d *loadGen) closedLoop(ctx context.Context, window time.Duration, next func(i int) op, from int) (int, time.Duration) {
	var idx atomic.Int64
	idx.Store(int64(from))
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				d.do(ctx, next(i), time.Now())
			}
		}()
	}
	wg.Wait()
	return int(idx.Load()), time.Since(start)
}

// openLoop sends each op at its due time regardless of earlier ones;
// clients workers carry them, so a stall queues later ops, whose
// latency then includes the wait.
func (d *loadGen) openLoop(ctx context.Context, ops []op) time.Duration {
	// One slot per op: the dispatcher never blocks, so ops leave it on
	// time however far behind the workers are.
	queue := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				d.do(ctx, ops[i], start.Add(ops[i].due))
			}
		}()
	}
	for i := range ops {
		// Go's timers wake on a 1 ms tick here, so ops leave up to a
		// millisecond late; loadgen.late_p99_ms reports how late.
		if wait := time.Until(start.Add(ops[i].due)); wait > 0 {
			time.Sleep(wait)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return time.Since(start)
}

func completeOp(term string, due time.Duration) op {
	return op{key: term, method: http.MethodGet, path: "/complete?term=" + url.QueryEscape(term), due: due}
}

func runRequest(query string) op {
	return op{key: query, method: http.MethodPost, path: "/run", body: query}
}

func readOp(query string) op {
	return op{key: query, method: http.MethodPost, path: "/sparql", body: query}
}

func writeOp(body string) op {
	return op{key: "write", method: http.MethodPost, path: "/add", body: body, write: true}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
