package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/persist"
	"kcore/internal/server"
	"kcore/internal/server/wire"
)

// TestServeE2E is the CI end-to-end smoke: it boots kcore-serve on a random
// port exactly as main would, drives it over real HTTP with the in-process
// client (batch ingest, snapshot queries, an SSE watch), asserts the served
// core numbers match a direct one-shot Decompose of the same edges, and
// then exercises graceful shutdown.
func TestServeE2E(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	addrCh := make(chan string, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "5s"},
			&out, func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runDone:
		t.Fatalf("run exited before listening: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	c, err := server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// Open the watch before writing so it sees the ingest. The watch
	// context is deliberately independent of the run context: the stream
	// ending after shutdown must prove SERVER-side termination, not the
	// client tearing its own request down.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	events, err := c.Watch(wctx, server.WatchOptions{Buffer: 1 << 15})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if ev := <-events; ev.Type != wire.EventHello {
		t.Fatalf("first watch event = %+v, want hello", ev)
	}

	// Ingest a scale-free graph in a handful of batches.
	g := gen.BarabasiAlbert(300, 3, 99)
	edges := g.Edges()
	const batchSize = 128
	for start := 0; start < len(edges); start += batchSize {
		end := min(start+batchSize, len(edges))
		if _, err := c.AddEdges(ctx, edges[start:end]); err != nil {
			t.Fatalf("AddEdges[%d:%d]: %v", start, end, err)
		}
	}

	// The served core numbers must match a direct one-shot decomposition.
	want, err := kcore.Decompose(edges)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	for _, v := range []int{0, 1, 7, 42, 150, 299} {
		resp, err := c.Core(ctx, v)
		if err != nil {
			t.Fatalf("Core(%d): %v", v, err)
		}
		if resp.Core != want[v] {
			t.Fatalf("served core(%d) = %d, Decompose says %d", v, resp.Core, want[v])
		}
	}
	maxCore := 0
	for _, cv := range want {
		maxCore = max(maxCore, cv)
	}
	for k := 0; k <= maxCore+1; k++ {
		wantCount := 0
		for _, cv := range want {
			if cv >= k {
				wantCount++
			}
		}
		resp, err := c.KCore(ctx, k)
		if err != nil {
			t.Fatalf("KCore(%d): %v", k, err)
		}
		if resp.Count != wantCount {
			t.Fatalf("served kcore(%d) has %d vertices, Decompose says %d", k, resp.Count, wantCount)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Edges != len(edges) || st.Degeneracy != maxCore {
		t.Fatalf("stats = %+v, want %d edges, degeneracy %d", st, len(edges), maxCore)
	}
	if st.Seq != uint64(len(edges)) {
		t.Fatalf("stats seq = %d, want %d", st.Seq, len(edges))
	}

	// The watcher saw real transitions (exact count depends on drops —
	// none expected with this buffer, but the contract only promises
	// change events are well-formed).
	sawChange := false
drain:
	for {
		select {
		case ev, open := <-events:
			if !open {
				t.Fatal("watch stream closed before shutdown")
			}
			if ev.Type == wire.EventChange {
				sawChange = true
				if ev.Change.OldCore == ev.Change.NewCore {
					t.Fatalf("change event with no transition: %+v", ev.Change)
				}
			}
		case <-time.After(200 * time.Millisecond):
			break drain
		}
	}
	if !sawChange {
		t.Fatal("watcher saw no change events during ingest")
	}

	// Graceful shutdown: cancel the run context (what SIGTERM does) and the
	// server must drain and exit cleanly, ending the watch stream.
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
	deadline := time.After(5 * time.Second)
waitClosed:
	for {
		select {
		case _, open := <-events:
			if !open {
				break waitClosed
			}
		case <-deadline:
			t.Fatal("watch stream still open after shutdown")
		}
	}
	if !strings.Contains(out.String(), "bye") {
		t.Fatalf("run output missing clean exit marker:\n%s", out.String())
	}
	// The port is released.
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("health check succeeded after shutdown")
	}
}

// TestRunLoadsEdgeList covers the -load path end to end.
func TestRunLoadsEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(path, []byte("# triangle\n0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	addrCh := make(chan string, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(ctx, []string{"-addr", "127.0.0.1:0", "-load", path},
			&out, func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runDone:
		t.Fatalf("run exited before listening: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	c, err := server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	resp, err := c.Core(ctx, 0)
	if err != nil || resp.Core != 2 {
		t.Fatalf("core(0) = %+v, err %v; want preloaded triangle core 2", resp, err)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunLoadsSnapshot covers -load with a KCORSNAP image: the bytes
// streamed from GET /v1/snapshot/export boot a fresh server with the same
// cores and seq.
func TestRunLoadsSnapshot(t *testing.T) {
	eng := kcore.NewEngine()
	if _, err := eng.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.snap")
	if err := persist.Save(path, eng); err != nil {
		t.Fatalf("Save: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	addrCh := make(chan string, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(ctx, []string{"-addr", "127.0.0.1:0", "-load", path},
			&out, func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runDone:
		t.Fatalf("run exited before listening: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	c, err := server.NewClient("http://"+addr, nil)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	resp, err := c.Cores(ctx)
	if err != nil {
		t.Fatalf("Cores: %v", err)
	}
	if want := eng.Cores(); !slices.Equal(resp.Cores, want) {
		t.Fatalf("restored cores = %v, want %v", resp.Cores, want)
	}
	if resp.Seq != eng.Seq() {
		t.Fatalf("restored seq = %d, want %d", resp.Seq, eng.Seq())
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunRejectsBadFlags keeps flag errors structured (no os.Exit in run).
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, nil); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if err := run(context.Background(), []string{"-load", "/no/such/file"}, &out, nil); err == nil {
		t.Fatal("run accepted a missing -load file")
	}
}

// TestRunRejectsFollowMultiTenant pins the boot-time rejection of -follow
// combined with multi-tenant hosting: a follower replicates only the
// default tenant, so explicitly asking it to host named tenants must fail
// loudly instead of serving them unreplicated. Leaving the tenant flags at
// their (multi-tenant) defaults must still boot — the follower narrows
// itself to single-tenant hosting.
func TestRunRejectsFollowMultiTenant(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-follow", "http://127.0.0.1:1", "-max-tenants", "8"},
		{"-follow", "http://127.0.0.1:1", "-tenant-idle", "5m"},
	} {
		err := run(context.Background(), args, &out, nil)
		if err == nil {
			t.Fatalf("run accepted %v", args)
		}
		if !strings.Contains(err.Error(), "conflict") {
			t.Fatalf("run %v: want a flag-conflict error, got: %v", args, err)
		}
	}
	// Explicit single-tenant values are consistent with following and must
	// not trip the conflict check (the bootstrap itself fails later on the
	// unreachable primary, proving the flag gate was passed).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := run(ctx, []string{
		"-follow", "http://127.0.0.1:1", "-max-tenants", "1", "-tenant-idle", "0"}, &out, nil)
	if err == nil || strings.Contains(err.Error(), "conflict") {
		t.Fatalf("run with single-tenant flags: want a bootstrap error, got: %v", err)
	}
}

// TestRunStopsRightAfterListening: a stop signal that lands as soon as the
// "listening on" line is out — before or after the accept loop starts —
// is a clean shutdown: run returns nil and says bye. The server-level
// TestServeAfterShutdownReturnsNil pins the Shutdown-before-Serve order.
func TestRunStopsRightAfterListening(t *testing.T) {
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var out bytes.Buffer
		err := run(ctx, []string{"-addr", "127.0.0.1:0"}, &out, func(string) { cancel() })
		cancel()
		if err != nil {
			t.Fatalf("run %d = %v, want nil\n%s", i, err, out.String())
		}
		if !strings.HasSuffix(out.String(), "bye\n") {
			t.Fatalf("run %d output does not end with bye:\n%s", i, out.String())
		}
	}
}
