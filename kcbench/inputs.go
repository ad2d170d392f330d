package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"

	"kcore"
	"kcore/internal/gen"
	"kcore/internal/graph"
	"kcore/internal/server/wire"
	"kcore/internal/workload"
)

// workloadSpec is one traffic mix. README.md records why each exists and
// which layer metrics it should move.
type workloadSpec struct {
	name string
	// graph builds the preloaded graph from a seed at the given size.
	graph func(seed uint64, tiny bool) *graph.Undirected
	// paper selects the paper's §VII experiment as the write stream:
	// sampled edges removed, re-inserted, removed again. Otherwise the
	// stream is workload.Churn.
	paper bool
	// sample is the number of edges the paper stream cycles (full size).
	sample int
	// batch is the number of updates per write request.
	batch int
	// undo, when set, shapes the churn stream into units of undo churn
	// updates followed by their inverse, so the graph returns to the
	// preloaded one after every unit (see README.md: under unbroken churn
	// the maintained k-order drifts and per-batch cost climbs toward a
	// seed-dependent plateau).
	undo int
	// community is the size of a dense community added beside the graph
	// on vertices the write stream never touches, so the top core that
	// GET /v1/kcore?k= reads stays a stable, kilobyte-scale response.
	community int
	// readRate is the open-loop reader's rate in reads per second (0: no
	// reader). Reads are GET /v1/core/{v} and GET /v1/kcore?k= at 3:1.
	readRate float64
	// watch attaches one binary /v1/watch watcher.
	watch bool
	// durable runs the server with -data-dir, -fsync always and
	// -compact-every compactEvery, and ends the run with SIGTERM and
	// reboots on the same directory.
	durable      bool
	compactEvery int64
}

var workloads = []workloadSpec{
	{
		name: "paper-churn",
		graph: func(seed uint64, tiny bool) *graph.Undirected {
			if tiny {
				return gen.BarabasiAlbert(400, 6, seed)
			}
			return gen.BarabasiAlbert(24000, 38, seed) // orkut-sim analog
		},
		paper:  true,
		sample: 10000,
		batch:  250,
	},
	{
		name: "serve-mixed",
		graph: func(seed uint64, tiny bool) *graph.Undirected {
			if tiny {
				return gen.ErdosRenyi(400, 1200, seed)
			}
			return gen.ErdosRenyi(20000, 60000, seed)
		},
		community: 200,
		undo:      4000,
		batch:     8,
		readRate:  400,
	},
	{
		name: "durable-watch",
		graph: func(seed uint64, tiny bool) *graph.Undirected {
			if tiny {
				return gen.BarabasiAlbert(600, 3, seed)
			}
			return gen.BarabasiAlbert(60000, 3, seed) // youtube-sim analog
		},
		batch:        50,
		watch:        true,
		durable:      true,
		compactEvery: 256 << 10,
	},
}

// plant adds a dense community of size new vertices to g, each joined to
// deg random others of the community.
func plant(g *graph.Undirected, size, deg int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	first := g.NumVertices()
	for u := first; u < first+size; u++ {
		for added := 0; added < deg; {
			v := first + rng.IntN(size)
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					panic(err) // unreachable: checked above
				}
				added++
			}
		}
	}
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// maxUpdatesPerSec caps how many plain churn updates are generated per
// second of run: twice what one closed-loop writer reached on durable-watch
// (about 50k/s on two vCPUs), so the stream outlasts the window. A longer
// stream shares its prefix with a shorter one.
const maxUpdatesPerSec = 100000

// maxUndoUnits is how many distinct churn-and-undo units a run cycles
// through.
const maxUndoUnits = 32

// read is one scheduled query: GET /v1/core/{v}, or GET /v1/kcore?k=k when
// kcore is set.
type read struct {
	kcore bool
	arg   int
}

// inputs are everything generated from the seed. The server receives only
// edges (as an edge-list file) and the requests built from units and reads.
type inputs struct {
	edges [][2]int // preloaded graph, sorted, u < v
	// units are the write stream's indivisible steps; the measured window
	// ends only between units. A paper-churn unit removes one edge sample
	// and re-inserts it, a serve-mixed unit churns and undoes it; both
	// return to the preloaded graph, so their units cycle (repeat). Plain
	// churn has one batch per unit and ends when the stream does.
	units  [][]kcore.Batch
	repeat bool
	// tail is sent once after the measured window, unmeasured.
	tail  []kcore.Batch
	reads []read
}

// splitmix64 derives independent sub-seeds from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed uint64, stream int) uint64 { return splitmix64(seed*16 + uint64(stream)) }

// generate builds a workload's inputs from the seed. seconds sizes the
// churn stream and the read schedule.
func generate(w workloadSpec, seed uint64, seconds float64, tiny bool) *inputs {
	g := w.graph(subSeed(seed, 1), tiny)
	in := &inputs{}
	if w.paper {
		// Disjoint samples from one shuffle of the edges: each unit removes
		// its sample from the preloaded graph and re-inserts it, so every
		// unit starts from the preloaded graph and a run averages over many
		// samples. The tail removes the first sample again.
		n := w.sample
		if tiny {
			n = 300
		}
		all := workload.SampleEdges(g, g.NumEdges(), subSeed(seed, 2))
		for start := 0; start+n <= len(all); start += n {
			s := all[start : start+n]
			rem := chunk(len(s), w.batch, func(i int) kcore.Update { return kcore.Remove(s[i].U, s[i].V) })
			add := chunk(len(s), w.batch, func(i int) kcore.Update { return kcore.Add(s[i].U, s[i].V) })
			in.units = append(in.units, append(rem, add...))
			if start == 0 {
				in.tail = rem
			}
		}
		in.repeat = true
	} else if w.undo > 0 {
		// Each unit is a fresh churn draw on the preloaded graph followed by
		// its inverse; the units cycle.
		n := w.undo
		if tiny {
			n = 400
		}
		for i := 0; i < maxUndoUnits; i++ {
			ops := workload.Churn(g, n, workload.ChurnOptions{Seed: splitmix64(subSeed(seed, 3) + uint64(i))})
			for j := len(ops) - 1; j >= 0; j-- {
				ops = append(ops, workload.Op{Insert: !ops[j].Insert, E: ops[j].E})
			}
			in.units = append(in.units, chunk(len(ops), w.batch, churnUpdate(ops)))
		}
		in.repeat = true
	} else {
		ops := workload.Churn(g, int(float64(maxUpdatesPerSec)*(seconds+2)),
			workload.ChurnOptions{Seed: subSeed(seed, 3)})
		for _, b := range chunk(len(ops), w.batch, churnUpdate(ops)) {
			in.units = append(in.units, []kcore.Batch{b})
		}
	}
	if w.community > 0 {
		// Planted after the churn stream was drawn on g, so the stream
		// neither removes a community edge nor inserts a duplicate of one.
		size, deg := w.community, 12
		if tiny {
			size, deg = 40, 8
		}
		plant(g, size, deg, subSeed(seed, 5))
	}
	in.edges = g.Edges()
	sort.Slice(in.edges, func(i, j int) bool {
		a, b := in.edges[i], in.edges[j]
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	if w.readRate > 0 {
		top := 0
		cores, _ := kcore.Decompose(in.edges)
		for _, c := range cores {
			top = max(top, c)
		}
		rng := rand.New(rand.NewPCG(subSeed(seed, 4), 0))
		n := g.NumVertices()
		in.reads = make([]read, int(w.readRate*(seconds+1)))
		for i := range in.reads {
			if i%4 == 3 {
				in.reads[i] = read{kcore: true, arg: top}
			} else {
				in.reads[i] = read{arg: rng.IntN(n)}
			}
		}
	}
	return in
}

// churnUpdate maps a churn op to an engine update.
func churnUpdate(ops []workload.Op) func(int) kcore.Update {
	return func(i int) kcore.Update {
		if ops[i].Insert {
			return kcore.Add(ops[i].E.U, ops[i].E.V)
		}
		return kcore.Remove(ops[i].E.U, ops[i].E.V)
	}
}

// chunk builds ceil(n/size) batches of consecutive items. Inputs are held
// as engine updates, which carry no pointers, so a large stream costs the
// load generator's garbage collector nothing to scan.
func chunk(n, size int, item func(int) kcore.Update) []kcore.Batch {
	var out []kcore.Batch
	for start := 0; start < n; start += size {
		b := make(kcore.Batch, 0, min(size, n-start))
		for i := start; i < min(start+size, n); i++ {
			b = append(b, item(i))
		}
		out = append(out, b)
	}
	return out
}

// writeEdgeList writes the edges as the "u v" lines kcore-serve -load reads.
func writeEdgeList(w io.Writer, edges [][2]int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// dump writes a canonical text form of every generated input: two runs
// with the same seed must produce identical bytes.
func (in *inputs) dump(w io.Writer) error {
	if err := writeEdgeList(w, in.edges); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "repeat %v\n", in.repeat)
	for i, u := range in.units {
		for _, b := range u {
			fmt.Fprintf(bw, "unit %d %v\n", i, b)
		}
	}
	for _, b := range in.tail {
		fmt.Fprintf(bw, "tail %v\n", b)
	}
	for _, r := range in.reads {
		fmt.Fprintf(bw, "read %v %d\n", r.kcore, r.arg)
	}
	return bw.Flush()
}

// toWire converts a batch to the client's update type.
func toWire(b kcore.Batch) []wire.Update {
	out := make([]wire.Update, len(b))
	for i, u := range b {
		op := wire.OpRemove
		if u.Op == kcore.OpAdd {
			op = wire.OpAdd
		}
		out[i] = wire.Update{Op: op, U: u.U, V: u.V}
	}
	return out
}
