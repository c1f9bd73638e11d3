package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing follows one request across both HTTP hops. The generator
// marks a traced request with reqHeader (the request id) and
// parentHeader (the id of the span that sent it); every layer boundary
// below records a span carrying that request id. Untraced requests carry
// no header and record nothing.
const (
	reqHeader    = "X-Bench-Req"
	parentHeader = "X-Bench-Parent"
)

// Span is one timed call into a layer. Start and End are wall-clock
// nanoseconds so spans from the generator and the serving process share
// one time axis.
type Span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Bytes is the response size where the layer returns one.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type traceRef struct{ req, span uint64 }

type traceKey struct{}

func withTrace(ctx context.Context, ref traceRef) context.Context {
	return context.WithValue(ctx, traceKey{}, ref)
}

func traceOf(ctx context.Context) (traceRef, bool) {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	return ref, ok && ref.req != 0
}

// recorder keeps spans in memory until they are collected.
type recorder struct {
	base   uint64 // added to span ids so both processes' ids stay distinct
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

func newRecorder(base uint64) *recorder { return &recorder{base: base} }

// start opens a span under the trace in ctx. With no trace in ctx it
// returns ctx unchanged and a finish func that does nothing.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func(bytes int64)) {
	ref, ok := traceOf(ctx)
	if !ok {
		return ctx, func(int64) {}
	}
	return r.startRef(ctx, name, ref)
}

func (r *recorder) startRef(ctx context.Context, name string, parent traceRef) (context.Context, func(bytes int64)) {
	id := r.base + r.nextID.Add(1)
	begin := time.Now().UnixNano()
	ctx = withTrace(ctx, traceRef{req: parent.req, span: id})
	return ctx, func(bytes int64) {
		s := Span{Name: name, Req: parent.req, ID: id, Parent: parent.span,
			Start: begin, End: time.Now().UnixNano(), Bytes: bytes}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// refFromHeader reads the trace a request carries.
func refFromHeader(h http.Header) (traceRef, bool) {
	req, err := strconv.ParseUint(h.Get(reqHeader), 10, 64)
	if err != nil || req == 0 {
		return traceRef{}, false
	}
	parent, _ := strconv.ParseUint(h.Get(parentHeader), 10, 64)
	return traceRef{req: req, span: parent}, true
}

func setTraceHeader(h http.Header, ref traceRef) {
	h.Set(reqHeader, strconv.FormatUint(ref.req, 10))
	h.Set(parentHeader, strconv.FormatUint(ref.span, 10))
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []Span) map[string][]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		out[s.Name] = append(out[s.Name], s.dur()-time.Duration(covered))
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}
