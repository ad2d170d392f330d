package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a root); Req, the index of the request's
// root span, is shared by every span of one request.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch; End 0 while open
	Parent     int
	Req        int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the traced run. It records three
// boundaries from the benchmark's own code: each client call, a middleware
// around Server.Handler(), and the engine's batch execution between the
// SetApplyProbe and SetApplyTap callbacks.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// batchHandler is the open batch handler span, the parent of the
	// execution span the flusher goroutine opens. The benchmark runs one
	// writer, so at most one batch request is in flight.
	batchHandler atomic.Int64
	exec         int // open execution span, -1 if none (guarded by mu)
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), exec: -1}
	t.batchHandler.Store(-1)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its index. A root span starts a new
// request; a child joins its parent's.
func (t *tracer) begin(name string, parent int) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := len(t.spans)
	req := i
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans. A fully coalesced batch opens an
// execution span the tap never closes; it keeps End 0, so it covers no
// part of its parent.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// clientSpan wraps one client call: the span's index travels in the
// request context to the traced transport, which sends it to the server.
func (t *tracer) clientSpan(ctx context.Context, name string, call func(context.Context) error) error {
	if t == nil {
		return call(ctx)
	}
	i := t.begin(name, -1)
	err := call(context.WithValue(ctx, spanKey{}, i))
	t.end(i)
	return err
}

// spanHeader carries the client span index from the traced transport to
// the traced middleware.
const spanHeader = "X-Kcbench-Span"

// transport adds the client span index to outgoing requests.
type transport struct{ base http.RoundTripper }

func (tr transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if i, ok := r.Context().Value(spanKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(i))
	}
	return tr.base.RoundTrip(r)
}

// routeName names a request by its v1 route.
func routeName(path string) string {
	switch {
	case path == "/v1/batch":
		return "batch"
	case strings.HasPrefix(path, "/v1/core/"):
		return "core"
	case path == "/v1/kcore":
		return "kcore"
	case path == "/v1/watch":
		return "watch"
	case path == "/v1/cores":
		return "cores"
	}
	return "other"
}

// middleware records a handler span around every request.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := -1
		if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent = v
		}
		name := routeName(r.URL.Path)
		i := t.begin("handler."+name, parent)
		if name == "batch" {
			t.batchHandler.Store(int64(i))
		}
		next.ServeHTTP(w, r)
		if name == "batch" {
			t.batchHandler.Store(-1)
		}
		t.end(i)
	})
}

// probe opens the execution span (Engine.SetApplyProbe: after
// validation, before any mutation).
func (t *tracer) probe(int) {
	i := t.begin("execute", int(t.batchHandler.Load()))
	t.mu.Lock()
	t.exec = i
	t.mu.Unlock()
}

// tapEnd closes the execution span (Engine.SetApplyTap: after maintenance,
// epoch publication and the durability hook).
func (t *tracer) tapEnd() {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.exec >= 0 {
		t.spans[t.exec].End = now
		t.exec = -1
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
				reach = v[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}
