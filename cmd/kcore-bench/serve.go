package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/gen"
	"kcore/internal/server"
	"kcore/internal/server/wire"
)

// Serve experiment: a load generator for the kcore-serve service layer.
// It boots internal/server on a loopback port over an engine preloaded
// with an Erdős–Rényi base graph, then runs, all at once:
//
//   - writers concurrent HTTP writers streaming mixed add/remove batches
//     through POST /v1/batch (each on a private vertex block above the base
//     graph, so the streams stay valid under any interleaving and the
//     ingest coalescer sees genuinely concurrent callers);
//   - readers concurrent snapshot readers alternating GET /v1/core/{v} and
//     GET /v1/kcore;
//   - one SSE watcher riding /v1/watch.
//
// Every request's wall-clock latency is recorded; the results carry
// p50/p90/p99/max per request class, which is what BENCH_serve.json
// memorializes for the README and CI.
type serveParams struct {
	writers int
	readers int
	batch   int
	batches int
	baseN   int
	baseM   int
	seed    uint64
}

func serveExperiment(cfg bench.Config) []bench.Result {
	cfg = cfg.WithDefaults()
	p := serveParams{
		writers: 4,
		readers: 4,
		batch:   100,
		batches: max(cfg.Edges/(4*100), 5),
		baseN:   max(cfg.Edges/2, 500),
		baseM:   max(3*cfg.Edges/2, 1500),
		seed:    cfg.Seed,
	}
	fmt.Printf("=== serve === (%d writers x %d batches x %d updates, %d readers, base %d/%d)\n",
		p.writers, p.batches, p.batch, p.readers, p.baseN, p.baseM)
	results, err := runServeLoad(p)
	if err != nil {
		fatal(err)
	}
	return results
}

func runServeLoad(p serveParams) ([]bench.Result, error) {
	base := gen.ErdosRenyi(p.baseN, p.baseM, p.seed)
	engine, err := kcore.FromEdges(base.Edges())
	if err != nil {
		return nil, err
	}
	srv := server.New(engine, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client, err := server.NewClient("http://"+l.Addr().String(), nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Writer scripts live on vertex blocks above the base graph so they
	// can't conflict with it or each other.
	scripts := make([][][]wire.Update, p.writers)
	for w := range scripts {
		scripts[w] = serveWriterScript(p.baseN+w*64, p.batches, p.batch, p.seed+uint64(w))
	}

	// One SSE watcher rides along, counting what it sees.
	events, err := client.Watch(ctx, server.WatchOptions{Buffer: 4096})
	if err != nil {
		return nil, err
	}
	watchStats := make(chan [2]uint64, 1)
	go func() {
		var changes, lagged uint64
		for ev := range events {
			switch ev.Type {
			case wire.EventChange:
				changes++
			case wire.EventLagged:
				lagged = ev.Lagged.Dropped
			}
		}
		watchStats <- [2]uint64{changes, lagged}
	}()

	var (
		wgWriters, wgReaders sync.WaitGroup
		mu                   sync.Mutex
		ingestLat            []time.Duration
		coreLat              []time.Duration
		kcoreLat             []time.Duration
		firstErr             error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	stopReaders := make(chan struct{})

	start := time.Now()
	for w := 0; w < p.writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			local := make([]time.Duration, 0, len(scripts[w]))
			for _, b := range scripts[w] {
				t0 := time.Now()
				if _, err := client.Batch(ctx, b); err != nil {
					fail(fmt.Errorf("writer %d: %w", w, err))
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			ingestLat = append(ingestLat, local...)
			mu.Unlock()
		}(w)
	}
	for r := 0; r < p.readers; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			rng := rand.New(rand.NewPCG(p.seed+100, uint64(r)))
			var localCore, localKCore []time.Duration
			for {
				select {
				case <-stopReaders:
					mu.Lock()
					coreLat = append(coreLat, localCore...)
					kcoreLat = append(kcoreLat, localKCore...)
					mu.Unlock()
					return
				default:
				}
				if rng.IntN(4) > 0 { // 3:1 core-to-kcore mix
					t0 := time.Now()
					if _, err := client.Core(ctx, rng.IntN(p.baseN)); err != nil {
						fail(fmt.Errorf("reader %d: %w", r, err))
						return
					}
					localCore = append(localCore, time.Since(t0))
				} else {
					t0 := time.Now()
					if _, err := client.KCore(ctx, 2+rng.IntN(3)); err != nil {
						fail(fmt.Errorf("reader %d: %w", r, err))
						return
					}
					localKCore = append(localKCore, time.Since(t0))
				}
			}
		}(r)
	}
	wgWriters.Wait()
	close(stopReaders)
	wgReaders.Wait()
	elapsed := time.Since(start)
	cancel() // end the watch stream
	var ws [2]uint64
	select {
	case ws = <-watchStats:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("serve experiment: watcher never finished")
	}
	if firstErr != nil {
		return nil, fmt.Errorf("serve experiment: %w", firstErr)
	}

	st, err := serveFinalStats(client)
	if err != nil {
		return nil, err
	}
	shared := map[string]any{
		"writers": p.writers, "readers": p.readers,
		"batch_size": p.batch, "batches_per_writer": p.batches,
		"base_n": p.baseN, "base_m": p.baseM, "seed": p.seed,
		"wall_ns":        elapsed.Nanoseconds(),
		"ingest_flushes": st.Ingest.Flushes, "ingest_grouped": st.Ingest.Grouped,
		"watch_changes": ws[0], "watch_dropped": ws[1],
	}
	mk := func(name string, sample []time.Duration) bench.Result {
		s := bench.Summarize(sample)
		res := bench.Result{
			Name:       name,
			NsPerOp:    float64(s.P50.Nanoseconds()),
			Iterations: s.Count,
			Params:     bench.StampParams(s.Params(shared)),
		}
		fmt.Printf("%-24s p50 %10v  p90 %10v  p99 %10v  max %10v  (%d requests)\n",
			name, s.P50, s.P90, s.P99, s.Max, s.Count)
		return res
	}
	results := []bench.Result{
		mk("serve/ingest-batch", ingestLat),
		mk("serve/query-core", coreLat),
		mk("serve/query-kcore", kcoreLat),
	}
	fmt.Printf("%-24s %d requests in %v; coalescer grouped %d/%d; watcher saw %d changes (%d dropped)\n",
		"serve/summary", st.Ingest.Requests, elapsed.Round(time.Millisecond),
		st.Ingest.Grouped, st.Ingest.Requests, ws[0], ws[1])
	return results, nil
}

// serveFinalStats fetches the server's ingest counters after the load
// (with its own context: the load generator's is already cancelled).
func serveFinalStats(client *server.Client) (*wire.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return client.Stats(ctx)
}

// serveWriterScript builds one writer's valid batch sequence over the
// private vertex block [base, base+64): mixed adds and removes against the
// writer's own edge history, mirroring the differential test's generator.
func serveWriterScript(base, batches, batchSize int, seed uint64) [][]wire.Update {
	const span = 64
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	present := map[[2]int]bool{}
	var presentList [][2]int
	out := make([][]wire.Update, 0, batches)
	for b := 0; b < batches; b++ {
		batch := make([]wire.Update, 0, batchSize)
		for len(batch) < batchSize {
			if len(presentList) > 0 && rng.Float64() < 0.35 {
				i := rng.IntN(len(presentList))
				e := presentList[i]
				presentList[i] = presentList[len(presentList)-1]
				presentList = presentList[:len(presentList)-1]
				delete(present, e)
				batch = append(batch, wire.Update{Op: wire.OpRemove, U: e[0], V: e[1]})
				continue
			}
			u := base + rng.IntN(span)
			v := base + rng.IntN(span)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if present[[2]int{u, v}] {
				continue
			}
			present[[2]int{u, v}] = true
			presentList = append(presentList, [2]int{u, v})
			batch = append(batch, wire.Update{Op: wire.OpAdd, U: u, V: v})
		}
		out = append(out, batch)
	}
	return out
}
