package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kcore"
	"kcore/internal/server/wire"
)

// newTestServer starts the service on an httptest server and returns the
// Server plus a Client aimed at it. Cleanup shuts both down.
func newTestServer(t *testing.T, e *kcore.Engine, opts Options) (*Server, *Client) {
	t.Helper()
	s := New(e, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return s, c
}

func TestBatchQueryRoundTrip(t *testing.T) {
	_, c := newTestServer(t, kcore.NewEngine(), Options{})
	ctx := context.Background()

	// A triangle: all three vertices reach core 2.
	resp, err := c.AddEdges(ctx, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	if resp.Applied != 3 || resp.Seq != 3 || resp.FlushedWith != 1 {
		t.Fatalf("batch response = %+v, want applied 3, seq 3, flushed_with 1", resp)
	}
	if len(resp.CoreChanged) == 0 {
		t.Fatalf("batch response reported no core changes: %+v", resp)
	}

	core, err := c.Core(ctx, 1)
	if err != nil {
		t.Fatalf("Core: %v", err)
	}
	if core.Core != 2 || core.Seq != 3 {
		t.Fatalf("core(1) = %+v, want core 2 at seq 3", core)
	}

	kc, err := c.KCore(ctx, 2)
	if err != nil {
		t.Fatalf("KCore: %v", err)
	}
	if kc.Count != 3 || len(kc.Vertices) != 3 {
		t.Fatalf("kcore(2) = %+v, want 3 vertices", kc)
	}
	if kc, err = c.KCore(ctx, 3); err != nil || kc.Count != 0 || kc.Vertices == nil {
		t.Fatalf("kcore(3) = %+v, err %v; want empty non-nil vertex list", kc, err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Vertices != 3 || st.Edges != 3 || st.Degeneracy != 2 || st.Seq != 3 {
		t.Fatalf("stats = %+v, want 3 vertices, 3 edges, degeneracy 2, seq 3", st)
	}
	if st.Algorithm != "order-based" {
		t.Fatalf("stats algorithm = %q", st.Algorithm)
	}
	if st.Ingest.Requests != 1 || st.Ingest.Flushes != 1 {
		t.Fatalf("ingest stats = %+v, want 1 request in 1 flush", st.Ingest)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, err %v", h, err)
	}

	// Removal through the same path.
	if _, err := c.RemoveEdges(ctx, [][2]int{{0, 2}}); err != nil {
		t.Fatalf("RemoveEdges: %v", err)
	}
	if core, err = c.Core(ctx, 0); err != nil || core.Core != 1 {
		t.Fatalf("core(0) after removal = %+v, err %v, want 1", core, err)
	}
}

func TestBatchErrorMapping(t *testing.T) {
	_, c := newTestServer(t, kcore.NewEngine(), Options{MaxBatch: 4})
	ctx := context.Background()
	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("seed edge: %v", err)
	}

	cases := []struct {
		name    string
		updates []wire.Update
		code    string
		status  int
		index   int
	}{
		{"self loop", []wire.Update{{Op: "add", U: 3, V: 3}}, wire.CodeSelfLoop, 422, 0},
		{"negative vertex", []wire.Update{{Op: "add", U: -1, V: 2}}, wire.CodeVertexRange, 422, 0},
		{"vertex above int32", []wire.Update{{Op: "add", U: 2, V: 3}, {Op: "add", U: 0, V: 1 << 31}}, wire.CodeVertexRange, 422, 1},
		{"duplicate", []wire.Update{{Op: "add", U: 2, V: 3}, {Op: "add", U: 0, V: 1}}, wire.CodeDuplicateEdge, 409, 1},
		{"missing", []wire.Update{{Op: "remove", U: 5, V: 6}}, wire.CodeMissingEdge, 409, 0},
		{"bad op", []wire.Update{{Op: "toggle", U: 1, V: 2}}, wire.CodeBadRequest, 400, 0},
		{"empty", nil, wire.CodeBadRequest, 400, -1},
		{"too large", []wire.Update{
			{Op: "add", U: 10, V: 11}, {Op: "add", U: 11, V: 12}, {Op: "add", U: 12, V: 13},
			{Op: "add", U: 13, V: 14}, {Op: "add", U: 14, V: 15},
		}, wire.CodeBatchTooLarge, 413, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Batch(ctx, tc.updates)
			var we *wire.Error
			if !errors.As(err, &we) {
				t.Fatalf("err = %v, want *wire.Error", err)
			}
			if we.Code != tc.code || we.Status != tc.status {
				t.Fatalf("error = %s (HTTP %d), want %s (HTTP %d): %v",
					we.Code, we.Status, tc.code, tc.status, we)
			}
			if tc.index >= 0 {
				if we.Index == nil || *we.Index != tc.index {
					t.Fatalf("error index = %v, want %d: %v", we.Index, tc.index, we)
				}
				if we.Update == nil {
					t.Fatalf("error update missing: %v", we)
				}
			}
		})
	}

	// A failed batch is atomic: nothing from the duplicate case applied.
	if core, err := c.Core(ctx, 2); err != nil || core.Core != 0 {
		t.Fatalf("core(2) = %+v, err %v; failed batch must not partially apply", core, err)
	}
}

func TestQueryParamValidation(t *testing.T) {
	_, c := newTestServer(t, kcore.NewEngine(), Options{})
	hc := c.hc
	for _, path := range []string{"/v1/core/x", "/v1/core/-1", "/v1/kcore", "/v1/kcore?k=-2",
		"/v1/watch?min_core=-1", "/v1/watch?buffer=0"} {
		resp, err := hc.Get(c.base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = HTTP %d, want 400", path, resp.StatusCode)
		}
	}
	// Unknown routes and wrong methods answer with the JSON envelope, not
	// ServeMux's plain text.
	readEnvelope := func(resp *http.Response) *wire.Error {
		t.Helper()
		defer resp.Body.Close()
		var envelope wire.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == nil {
			t.Fatalf("HTTP %d body is not the JSON error envelope: %v", resp.StatusCode, err)
		}
		return envelope.Error
	}
	resp, err := hc.Get(c.base + "/v1/nope")
	if err != nil {
		t.Fatalf("GET /v1/nope: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope = HTTP %d, want 404", resp.StatusCode)
	}
	if we := readEnvelope(resp); we.Code != wire.CodeNotFound {
		t.Errorf("GET /v1/nope code = %q, want %q", we.Code, wire.CodeNotFound)
	}
	resp, err = hc.Get(c.base + "/v1/batch") // GET on a POST endpoint
	if err != nil {
		t.Fatalf("GET /v1/batch: %v", err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch = HTTP %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != http.MethodPost {
		t.Errorf("Allow = %q, want POST", got)
	}
	if we := readEnvelope(resp); we.Code != wire.CodeMethodNotAllowed {
		t.Errorf("GET /v1/batch code = %q, want %q", we.Code, wire.CodeMethodNotAllowed)
	}
}

// TestGracefulShutdown runs the server on a real listener through Serve and
// verifies the full drain sequence: Shutdown ends watch streams, rejects
// new writes with 503, and Serve returns nil.
func TestGracefulShutdown(t *testing.T) {
	e := kcore.NewEngine()
	s := New(e, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	c, err := NewClient("http://"+l.Addr().String(), nil)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()
	if _, err := c.AddEdges(ctx, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	events, err := c.Watch(ctx, WatchOptions{})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if ev := <-events; ev.Type != wire.EventHello {
		t.Fatalf("first watch event = %+v, want hello", ev)
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// The watch stream must have ended.
	deadline := time.After(5 * time.Second)
waitClosed:
	for {
		select {
		case _, open := <-events:
			if !open {
				break waitClosed
			}
		case <-deadline:
			t.Fatal("watch stream still open after Shutdown")
		}
	}
	// New writes are refused (either a structured 503 if a lingering
	// listener handled it, or a connection error once the socket is gone).
	if _, err := c.AddEdges(ctx, [][2]int{{1, 2}}); err == nil {
		t.Fatal("AddEdges after Shutdown succeeded, want failure")
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestServeAfterShutdownReturnsNil: a Serve that starts after Shutdown
// returns the nil a Serve stopped by Shutdown returns, and closes the
// listener without accepting, as net/http's Serve does.
func TestServeAfterShutdownReturnsNil(t *testing.T) {
	s := New(kcore.NewEngine(), Options{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	if err := s.Serve(l); err != nil {
		t.Fatalf("Serve after Shutdown = %v, want nil", err)
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
}

func TestNewClientValidatesURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "127.0.0.1:8080", "/just/a/path"} {
		if _, err := NewClient(bad, nil); err == nil {
			t.Errorf("NewClient(%q) succeeded, want error", bad)
		}
	}
	if _, err := NewClient("http://127.0.0.1:8080/", nil); err != nil {
		t.Errorf("NewClient(valid) = %v", err)
	}
}
