package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"kcore"
	"kcore/internal/server"
	"kcore/internal/server/wire"
)

// e2eRun is the untraced run against the kcore-serve binary.
type e2eRun struct {
	setup     []time.Duration
	load      *loadResult
	peakRSSMB float64
	cpu       time.Duration // server CPU over the whole drive, warm-up and tail included
	diskBytes float64       // server write_bytes over the whole drive
	before    *wire.StatsResponse
	after     *wire.StatsResponse
	recover   []time.Duration
	recovered uint64 // WAL records replayed by the first reboot
}

// serveArgs are the kcore-serve flags of a run: production defaults plus
// what the workload names.
func serveArgs(w workloadSpec, edgeFile, dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-load", edgeFile}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "always",
			"-compact-every", strconv.FormatInt(w.compactEvery, 10))
	}
	return args
}

// setupBoots is how many times a run boots kcore-serve to take the median
// set-up time; the last boot serves the traffic.
const setupBoots = 3

// runE2E boots kcore-serve setupBoots times, drives the workload against
// the last one, checks the oracle, and (durable workloads) stops it with
// SIGTERM and reboots it on the same directory.
func runE2E(ctx context.Context, w workloadSpec, in *inputs, opt options, dir string) (*e2eRun, error) {
	edgeFile := filepath.Join(dir, "graph.txt")
	f, err := os.Create(edgeFile)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(writeEdgeList(f, in.edges), f.Close()); err != nil {
		return nil, fmt.Errorf("write edge list: %w", err)
	}
	run := &e2eRun{}
	var c *child
	var args []string
	for i := 0; i < setupBoots; i++ {
		args = serveArgs(w, edgeFile, filepath.Join(dir, fmt.Sprintf("data%d", i)))
		var d time.Duration
		if c, d, err = boot(opt.serveBin, args); err != nil {
			return nil, err
		}
		run.setup = append(run.setup, d)
		if i < setupBoots-1 {
			if err := ready(ctx, c); err != nil {
				return nil, err
			}
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if c != nil {
			c.kill()
		}
	}()
	base := "http://" + c.addr
	client, err := newClient(base, nil, true)
	if err != nil {
		return nil, err
	}
	if run.before, err = client.Stats(ctx); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	disk0, diskErr := procWriteBytes(c.pid())
	if run.load, err = drive(ctx, w, in, base, opt.seconds, nil); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	run.cpu = cpu1 - cpu0
	if disk1, err := procWriteBytes(c.pid()); err == nil && diskErr == nil {
		run.diskBytes = disk1 - disk0
	}
	if run.after, err = client.Stats(ctx); err != nil {
		return nil, err
	}
	if run.peakRSSMB, err = procStatusKB(c.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	run.peakRSSMB /= 1024

	want, err := oracleCores(in.edges, run.load.batches)
	if err != nil {
		return nil, err
	}
	lastSeq := run.load.batches[len(run.load.batches)-1].seq
	if err := checkServer(ctx, client, want, lastSeq); err != nil {
		return nil, err
	}
	if w.watch {
		if err := checkWatch(run.load); err != nil {
			return nil, err
		}
	}
	if !w.durable {
		err := c.stop()
		c = nil
		return run, err
	}
	// Reboot on the same directory: recovery must reach the last acked
	// seq and the same cores.
	for i := 0; i < setupBoots; i++ {
		err := c.stop()
		c = nil
		if err != nil {
			return nil, err
		}
		var d time.Duration
		if c, d, err = boot(opt.serveBin, args); err != nil {
			return nil, fmt.Errorf("reboot: %w", err)
		}
		run.recover = append(run.recover, d)
		rc, err := newClient("http://"+c.addr, nil, true)
		if err != nil {
			return nil, err
		}
		if err := checkServer(ctx, rc, want, lastSeq); err != nil {
			return nil, fmt.Errorf("after reboot: %w", err)
		}
		if i == 0 {
			st, err := rc.Stats(ctx)
			if err != nil {
				return nil, err
			}
			if st.Persist != nil {
				run.recovered = st.Persist.RecoveredRecords
			}
		}
	}
	err = c.stop()
	c = nil
	return run, err
}

// ready waits until the server answers its health probe. kcore-serve
// prints "listening on" before its accept loop starts, and a SIGTERM in
// that gap makes it exit with "Serve after Shutdown", so a boot is only
// stopped once it has served a request.
func ready(ctx context.Context, c *child) error {
	hc, err := newClient("http://"+c.addr, nil, false)
	if err != nil {
		return err
	}
	if _, err := hc.Health(ctx); err != nil {
		return fmt.Errorf("health probe after boot: %w", err)
	}
	return nil
}

// oracleCores replays the acknowledged batches over the preloaded edges
// and decomposes the result statically — the oracle the served cores must
// equal.
func oracleCores(base [][2]int, batches []batchRec) ([]int, error) {
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	set := make(map[[2]int]struct{}, len(base))
	for _, e := range base {
		set[e] = struct{}{}
	}
	for _, b := range batches {
		for _, u := range b.updates {
			if u.Op == kcore.OpAdd {
				set[key(u.U, u.V)] = struct{}{}
			} else {
				delete(set, key(u.U, u.V))
			}
		}
	}
	edges := make([][2]int, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	return kcore.Decompose(edges)
}

// checkServer compares the served seq and cores with the oracle.
func checkServer(ctx context.Context, c *server.Client, want []int, seq uint64) error {
	got, err := c.Cores(ctx)
	if err != nil {
		return fmt.Errorf("fetch cores: %w", err)
	}
	if got.Seq != seq {
		return fmt.Errorf("server seq %d, last acked seq %d", got.Seq, seq)
	}
	return compareCores(got.Cores, want)
}

// compareCores treats vertices past either slice's end as core 0.
func compareCores(got, want []int) error {
	for v := 0; v < max(len(got), len(want)); v++ {
		g, w := 0, 0
		if v < len(got) {
			g = got[v]
		}
		if v < len(want) {
			w = want[v]
		}
		if g != w {
			return fmt.Errorf("vertex %d: core %d, oracle (static peel) says %d", v, g, w)
		}
	}
	return nil
}
