package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"kcore"
	"kcore/internal/server"
	"kcore/internal/server/wire"
)

// batchRec is one write request as the writer saw it.
type batchRec struct {
	updates  kcore.Batch
	sent     time.Duration // since the run's start
	lat      time.Duration // POST → ack
	startSeq uint64        // server seq before the batch (previous ack)
	seq      uint64        // ack seq
	applied  int
	changed  []int // ack core_changed
	measured bool
}

// readRec is one open-loop read, timed from when it was due.
type readRec struct {
	kcore bool
	late  time.Duration // actual send − due
	lat   time.Duration // completion − due
	err   bool
}

// eventRec is one change event the watcher received.
type eventRec struct {
	vertex int
	seq    uint64
	at     time.Duration
}

// loadResult is everything one drive of a server recorded.
type loadResult struct {
	batches []batchRec
	reads   []readRec
	events  []eventRec
	lagged  uint64 // events the watcher was told it lost
	// measStart and measEnd bound the writer's measured window.
	measStart, measEnd time.Duration
}

// newClient builds a kcore-serve client on its own connection. Retries
// are off, so a refused request counts as failed instead of being hidden.
// A server that stops answering fails the run instead of hanging it.
func newClient(base string, tr *tracer, binary bool) (*server.Client, error) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true,
		ResponseHeaderTimeout: 30 * time.Second}
	if tr != nil {
		rt = transport{rt}
	}
	c, err := server.NewClient(base, &http.Client{Transport: rt})
	if err != nil {
		return nil, err
	}
	c.Retry = nil
	c.Binary = binary
	return c, nil
}

// warmup is the unmeasured start of a run: caches fill and lazy set-up
// finishes before timing starts.
func warmup(seconds float64) time.Duration {
	return min(max(time.Duration(seconds*float64(time.Second)/10), 50*time.Millisecond), time.Second)
}

// drive runs one workload's traffic against the server at base: one
// closed-loop writer, plus the open-loop reader and the watcher when the
// workload has them (at most two connections carry traffic at once, the
// watcher's stream aside). A failed write ends the run with an error: the
// generator no longer knows the server's edge set.
func drive(ctx context.Context, w workloadSpec, in *inputs, base string, seconds float64, tr *tracer) (*loadResult, error) {
	writer, err := newClient(base, tr, true)
	if err != nil {
		return nil, err
	}
	st, err := writer.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("initial stats: %w", err)
	}
	res := &loadResult{}
	start := time.Now()
	since := func() time.Duration { return time.Since(start) }

	var watchDone chan struct{}
	var seen func() (maxSeq uint64, events int)
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	if w.watch {
		wc, err := newClient(base, nil, true)
		if err != nil {
			return nil, err
		}
		events, err := wc.Watch(wctx, server.WatchOptions{Buffer: 4096})
		if err != nil {
			return nil, fmt.Errorf("watch: %w", err)
		}
		hello := <-events
		if hello.Hello == nil {
			return nil, errors.New("watch stream did not start with hello")
		}
		var mu sync.Mutex
		var maxSeq uint64
		seen = func() (uint64, int) { mu.Lock(); defer mu.Unlock(); return maxSeq, len(res.events) }
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			for ev := range events {
				mu.Lock()
				switch {
				case ev.Change != nil && ev.Change.Seq > hello.Hello.Seq:
					res.events = append(res.events, eventRec{ev.Change.Vertex, ev.Change.Seq, since()})
					maxSeq = max(maxSeq, ev.Change.Seq)
				case ev.Lagged != nil:
					res.lagged = max(res.lagged, ev.Lagged.Dropped)
				}
				mu.Unlock()
			}
		}()
	}

	warmEnd := warmup(seconds)
	deadline := warmEnd + time.Duration(seconds*float64(time.Second))

	var readWG sync.WaitGroup
	if len(in.reads) > 0 {
		rc, err := newClient(base, tr, false)
		if err != nil {
			return nil, err
		}
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			res.reads = readLoop(ctx, rc, tr, in.reads, w.readRate, start.Add(warmEnd), start.Add(deadline))
		}()
	}

	seq := st.Seq
	send := func(b kcore.Batch, measured bool) error {
		rec := batchRec{updates: b, sent: since(), startSeq: seq, measured: measured}
		var resp *wire.BatchResponse
		err := tr.clientSpan(ctx, "client.batch", func(ctx context.Context) error {
			var err error
			resp, err = writer.Batch(ctx, toWire(b))
			return err
		})
		rec.lat = since() - rec.sent
		if err != nil {
			return fmt.Errorf("batch %d: %w", len(res.batches), err)
		}
		rec.seq, rec.applied, rec.changed = resp.Seq, resp.Applied, resp.CoreChanged
		seq = resp.Seq
		res.batches = append(res.batches, rec)
		return nil
	}
	var werr error
	res.measStart = -1
units:
	for u := 0; in.repeat || u < len(in.units); u++ {
		unit := in.units[u%len(in.units)]
		at := since()
		if at >= deadline {
			break
		}
		measured := at >= warmEnd
		if measured && res.measStart < 0 {
			res.measStart = at
		}
		for _, b := range unit {
			if werr = send(b, measured); werr != nil {
				break units
			}
		}
		if measured {
			res.measEnd = since()
		}
	}
	if werr == nil {
		for _, b := range in.tail {
			if werr = send(b, false); werr != nil {
				break
			}
		}
	}
	readWG.Wait()
	if w.watch {
		// Let the watcher receive the last changing batch's events: wait
		// until one has arrived and the stream has then gone quiet.
		var after uint64
		for _, b := range res.batches {
			if len(b.changed) > 0 {
				after = b.startSeq
			}
		}
		for t, last := time.Now(), -1; time.Since(t) < 10*time.Second; {
			time.Sleep(20 * time.Millisecond)
			maxSeq, n := seen()
			if maxSeq > after && n == last {
				break
			}
			last = n
		}
		stopWatch()
		<-watchDone
	}
	if werr != nil {
		return nil, werr
	}
	if res.measStart < 0 {
		return nil, errors.New("no unit started inside the measured window")
	}
	return res, nil
}

// readLoop sends the scheduled reads open loop at rate per second between
// from and until. Each read is timed from its due time, so a stall also
// counts against the reads queued behind it.
func readLoop(ctx context.Context, c *server.Client, tr *tracer, reads []read, rate float64, from, until time.Time) []readRec {
	var out []readRec
	for i, r := range reads {
		due := from.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.After(until) || ctx.Err() != nil {
			break
		}
		time.Sleep(time.Until(due))
		rec := readRec{kcore: r.kcore, late: time.Since(due)}
		var err error
		if r.kcore {
			err = tr.clientSpan(ctx, "client.kcore", func(ctx context.Context) error {
				resp, err := c.KCore(ctx, r.arg)
				if err == nil && resp.Count != len(resp.Vertices) {
					err = fmt.Errorf("kcore count %d != %d vertices", resp.Count, len(resp.Vertices))
				}
				return err
			})
		} else {
			err = tr.clientSpan(ctx, "client.core", func(ctx context.Context) error {
				_, err := c.Core(ctx, r.arg)
				return err
			})
		}
		rec.lat = time.Since(due)
		rec.err = err != nil
		out = append(out, rec)
	}
	return out
}

// watchLatencies matches each measured batch to the first change event
// carrying one of its seqs and returns send → receipt for every batch that
// changed some core.
func watchLatencies(res *loadResult) []time.Duration {
	first := make(map[int]time.Duration)
	for _, ev := range res.events {
		i := batchOf(res.batches, ev.seq)
		if i < 0 {
			continue
		}
		if at, ok := first[i]; !ok || ev.at < at {
			first[i] = ev.at
		}
	}
	var out []time.Duration
	for i, b := range res.batches {
		if at, ok := first[i]; ok && b.measured {
			out = append(out, at-b.sent)
		}
	}
	return out
}

// batchOf finds the batch whose seq range (startSeq, seq] holds s.
func batchOf(batches []batchRec, s uint64) int {
	i := sort.Search(len(batches), func(i int) bool { return batches[i].seq >= s })
	if i == len(batches) || batches[i].startSeq >= s {
		return -1
	}
	return i
}

// checkWatch verifies that the watcher saw no loss and every vertex each
// ack listed in core_changed.
func checkWatch(res *loadResult) error {
	if res.lagged > 0 {
		return fmt.Errorf("watcher lost %d events", res.lagged)
	}
	seen := make(map[[2]int]bool, len(res.events))
	for _, ev := range res.events {
		if i := batchOf(res.batches, ev.seq); i >= 0 {
			seen[[2]int{i, ev.vertex}] = true
		}
	}
	for i, b := range res.batches {
		for _, v := range b.changed {
			if !seen[[2]int{i, v}] {
				return fmt.Errorf("watcher missed vertex %d of batch %d (seqs %d..%d)", v, i, b.startSeq+1, b.seq)
			}
		}
	}
	return nil
}
