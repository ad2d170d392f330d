package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"kcore"
	"kcore/internal/graph"
	"kcore/internal/korder"
	"kcore/internal/persist"
	"kcore/internal/server"
)

// engineOpts are kcore-serve's default engine options (-seed 1, every
// other engine flag at its default).
var engineOpts = []kcore.Option{kcore.WithSeed(1)}

// tapRec is one applied batch as the engine's apply tap reported it: the
// surviving updates, in order.
type tapRec struct {
	seq     uint64
	updates kcore.Batch
}

// tracedServer is the in-process stack kcore-serve assembles (persist.Open
// for durable workloads, server.New), with the tracer's middleware around
// Server.Handler() and the tracer on the engine's probe and tap. The tap is
// the one a replication publisher would take, so the traced run has none.
type tracedServer struct {
	eng   *kcore.Engine
	store *persist.Store
	srv   *server.Server
	hs    *http.Server
	addr  string
	done  chan error
	taps  []tapRec // written by the tap under the engine lock; read after close
}

func startTraced(w workloadSpec, edgeFile, dataDir string, tr *tracer, loads *[]time.Duration) (*tracedServer, error) {
	ts := &tracedServer{done: make(chan error, 1)}
	load := func() (*kcore.Engine, error) {
		e, d, err := loadEngine(edgeFile, engineOpts...)
		*loads = append(*loads, d)
		return e, err
	}
	var err error
	if w.durable {
		ts.store, err = persist.Open(dataDir, durableOpts(w, load))
		if err != nil {
			return nil, err
		}
		ts.eng = ts.store.Engine()
	} else if ts.eng, err = load(); err != nil {
		return nil, err
	}
	ts.eng.SetApplyProbe(tr.probe)
	ts.eng.SetApplyTap(func(ab kcore.AppliedBatch) {
		tr.tapEnd()
		ts.taps = append(ts.taps, tapRec{ab.Seq, append(kcore.Batch(nil), ab.Updates...)})
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, ts.closeStore())
	}
	ts.srv = server.New(ts.eng, server.Options{Persist: ts.store})
	ts.hs = &http.Server{Handler: tr.middleware(ts.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	ts.addr = l.Addr().String()
	go func() { ts.done <- ts.hs.Serve(l) }()
	return ts, nil
}

// close drains the server the way kcore-serve does on SIGTERM.
func (ts *tracedServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ts.srv.Shutdown(ctx)
	err = errors.Join(err, ts.hs.Shutdown(ctx))
	if serr := <-ts.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, ts.closeStore())
}

func (ts *tracedServer) closeStore() error {
	if ts.store == nil {
		return nil
	}
	return ts.store.Close()
}

func durableOpts(w workloadSpec, init func() (*kcore.Engine, error)) persist.Options {
	return persist.Options{Sync: persist.SyncAlways, CompactBytes: w.compactEvery,
		Engine: engineOpts, Init: init}
}

// loadEngine times kcore.Load of the edge file.
func loadEngine(edgeFile string, opts ...kcore.Option) (*kcore.Engine, time.Duration, error) {
	f, err := os.Open(edgeFile)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	start := time.Now()
	e, err := kcore.Load(f, opts...)
	return e, time.Since(start), err
}

// replay applies the batches to e in order and returns each batch's
// execution span (probe → tap), or -1 where no tap fired (nothing applied).
func replay(e *kcore.Engine, batches []batchRec) ([]time.Duration, error) {
	var t0 time.Time
	var d time.Duration
	e.SetApplyProbe(func(int) { t0 = time.Now() })
	e.SetApplyTap(func(kcore.AppliedBatch) { d = time.Since(t0) })
	out := make([]time.Duration, len(batches))
	for i, b := range batches {
		d = -1
		if _, err := e.Apply(b.updates); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// korderTimes is the korder replay's timing, indexed like the batches.
type korderTimes struct {
	perBatch   []time.Duration
	ins, rem   time.Duration // over measured batches
	nIns, nRem int
	stats      korder.Stats
}

// korderReplay feeds the surviving updates alone into korder.Maintainer
// (the paper's OrderInsert/OrderRemoval; the order structure sits inside)
// and times each one.
func korderReplay(edgeFile string, batches []batchRec, taps []tapRec) (*korderTimes, error) {
	f, err := os.Open(edgeFile)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	m := korder.New(g, korder.Options{Seed: 1})
	kt := &korderTimes{perBatch: make([]time.Duration, len(batches))}
	bi := 0
	for _, tp := range taps {
		for bi < len(batches) && batches[bi].seq != tp.seq {
			bi++
		}
		if bi == len(batches) {
			return nil, fmt.Errorf("tap seq %d matches no acked batch", tp.seq)
		}
		measured := batches[bi].measured
		for _, up := range tp.updates {
			start := time.Now()
			if up.Op == kcore.OpAdd {
				_, err = m.Insert(up.U, up.V)
			} else {
				_, err = m.Remove(up.U, up.V)
			}
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("korder replay %v: %w", up, err)
			}
			kt.perBatch[bi] += d
			switch {
			case !measured:
			case up.Op == kcore.OpAdd:
				kt.ins += d
				kt.nIns++
			default:
				kt.rem += d
				kt.nRem++
			}
		}
	}
	kt.stats = m.Stats()
	return kt, nil
}

// codecTimes times the binary batch-frame codec (shared by HTTP ingest and
// the WAL) on the recorded request bodies, repeating the set until at
// least 20ms have been measured each way.
func codecTimes(batches []batchRec) (encNs, decNs float64, err error) {
	var bs []kcore.Batch
	for _, b := range batches {
		if b.measured {
			bs = append(bs, b.updates)
		}
	}
	if len(bs) == 0 {
		return 0, 0, nil
	}
	frames := make([][]byte, len(bs))
	var buf []byte
	var n int
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond || n == 0 {
		for i, b := range bs {
			if buf, err = persist.AppendBatchFrame(buf[:0], b); err != nil {
				return 0, 0, err
			}
			frames[i] = append(frames[i][:0], buf...)
			n += len(b)
		}
	}
	encNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	var scratch []kcore.Update
	n = 0
	start = time.Now()
	for time.Since(start) < 20*time.Millisecond || n == 0 {
		for _, f := range frames {
			if scratch, err = persist.DecodeBatchFrame(f, scratch[:0]); err != nil {
				return 0, 0, err
			}
			n += len(scratch)
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	return encNs, decNs, nil
}

// runTraced replays the workload's inputs through the traced in-process
// stack and each layer's public functions, sets the per-layer metrics, and
// prints the ledger.
func runTraced(ctx context.Context, w workloadSpec, in *inputs, opt options, dir string, e2e *e2eRun, m metrics, out io.Writer) error {
	edgeFile := filepath.Join(dir, "graph.txt")
	var loads []time.Duration
	tr := newTracer()
	ts, err := startTraced(w, edgeFile, filepath.Join(dir, "traced-data"), tr, &loads)
	if err != nil {
		return fmt.Errorf("traced server: %w", err)
	}
	res, err := drive(ctx, w, in, "http://"+ts.addr, opt.seconds/2, tr)
	if cerr := ts.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	want, err := oracleCores(in.edges, res.batches)
	if err != nil {
		return err
	}
	if err := compareCores(ts.eng.Cores(), want); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if w.watch {
		if err := checkWatch(res); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}

	// Replays of the same batches, each on a fresh engine from the same
	// edge file, each checked against the oracle.
	replayOn := func(e *kcore.Engine) ([]time.Duration, error) {
		if w.watch {
			// The watch hub's engine subscription, drained like the hub's
			// feed goroutine does, so notify costs what it costs in the server.
			ch, cancel := e.Subscribe(kcore.WithBuffer(4096))
			defer cancel()
			go func() {
				for range ch {
				}
			}()
		}
		ex, err := replay(e, res.batches)
		if err == nil {
			err = compareCores(e.Cores(), want)
		}
		return ex, err
	}
	fresh := func(opts ...kcore.Option) ([]time.Duration, error) {
		e, d, err := loadEngine(edgeFile, opts...)
		if err != nil {
			return nil, err
		}
		loads = append(loads, d)
		return replayOn(e)
	}
	bare, err := fresh(engineOpts...)
	if err != nil {
		return fmt.Errorf("bare replay: %w", err)
	}
	w1, err := fresh(append(append([]kcore.Option(nil), engineOpts...), kcore.WithWorkers(1))...)
	if err != nil {
		return fmt.Errorf("workers=1 replay: %w", err)
	}
	var stored []time.Duration
	if w.durable {
		st, err := persist.Open(filepath.Join(dir, "replay-data"), durableOpts(w, func() (*kcore.Engine, error) {
			e, d, err := loadEngine(edgeFile, engineOpts...)
			loads = append(loads, d)
			return e, err
		}))
		if err != nil {
			return fmt.Errorf("store replay: %w", err)
		}
		stored, err = replayOn(st.Engine())
		if err = errors.Join(err, st.Close()); err != nil {
			return fmt.Errorf("store replay: %w", err)
		}
	}
	kt, err := korderReplay(edgeFile, res.batches, ts.taps)
	if err != nil {
		return err
	}
	enc, dec, err := codecTimes(res.batches)
	if err != nil {
		return err
	}
	var peel []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := kcore.Decompose(in.edges); err != nil {
			return err
		}
		peel = append(peel, time.Since(start).Seconds())
	}

	l := analyze(m, tr.snapshot(), res, bare, w1, stored, kt)
	m.set("korder.insert_ns_per_update", perOp(kt.ins, kt.nIns), kt.nIns)
	m.set("korder.remove_ns_per_update", perOp(kt.rem, kt.nRem), kt.nRem)
	ks := kt.stats
	m.set("korder.visited_per_insert", float64(ks.VisitedInsert)/float64(ks.Inserts), int(ks.Inserts))
	m.set("korder.changed_per_update", float64(ks.ChangedInsert+ks.ChangedRemove)/float64(ks.Inserts+ks.Removes), int(ks.Inserts+ks.Removes))
	m.set("korder.changed_per_visited", float64(ks.ChangedInsert)/float64(ks.VisitedInsert), int(ks.Inserts))
	m.set("wire.batch_encode_ns_per_update", enc, len(res.batches))
	m.set("wire.batch_decode_ns_per_update", dec, len(res.batches))
	m.set("decomp.peel_s", median(peel), len(peel))
	loadS := durs(loads, time.Second)
	m.set("kcore.load_s", median(loadS), len(loadS))
	l.untraced = meanDur(measuredLat(e2e.load))
	m.set("ledger.tracing_overhead_us", us(l.traced-l.untraced), l.n)
	l.print(out, w)
	return nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func total(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return total(ds) / time.Duration(len(ds))
}

// measuredLat lists the measured batches' POST → ack latencies.
func measuredLat(res *loadResult) []time.Duration {
	var out []time.Duration
	for _, b := range res.batches {
		if b.measured {
			out = append(out, b.lat)
		}
	}
	return out
}
