// Command kcore is a CLI for static and dynamic k-core decomposition.
//
// Usage:
//
//	kcore decompose <edgelist>           print core-number summary
//	kcore stats <edgelist>               print graph statistics
//	kcore stream <edgelist>              maintain cores over stdin updates
//	kcore communities <edgelist> <k>     print connected k-core components
//
// Stream mode reads one operation per line from stdin: "+ u v [u v ...]"
// inserts edges (multiple pairs apply as one batch), "- u v [u v ...]"
// removes them, "? v" prints the core number of v, "k n" prints the n-core
// vertex count, "watch k" prints subsequent core changes at level k or
// above (a cascade larger than the watch buffer reports how many events
// were dropped), and "quit" exits.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"kcore"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, path := os.Args[1], os.Args[2]
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	engine, err := kcore.Load(f)
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "decompose":
		decompose(engine)
	case "stats":
		stats(engine)
	case "stream":
		stream(engine)
	case "communities":
		if len(os.Args) < 4 {
			usage()
		}
		k, err := strconv.Atoi(os.Args[3])
		if err != nil {
			fatal(fmt.Errorf("bad k %q: %w", os.Args[3], err))
		}
		communities(engine, k)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kcore (decompose|stats|stream) <edgelist> | kcore communities <edgelist> <k>")
	os.Exit(2)
}

func communities(e *kcore.Engine, k int) {
	comps := e.CoreComponents(k)
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	fmt.Printf("%d-core components: %d\n", k, len(comps))
	for i, c := range comps {
		sample := c
		if len(sample) > 8 {
			sample = sample[:8]
		}
		fmt.Printf("#%d size=%d sample=%v\n", i+1, len(c), sample)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcore:", err)
	os.Exit(1)
}

func decompose(e *kcore.Engine) {
	// One consistent snapshot answers every query below.
	v := e.View()
	hist := map[int]int{}
	for _, c := range v.Cores() {
		hist[c]++
	}
	keys := make([]int, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Printf("vertices=%d edges=%d degeneracy=%d\n", v.NumVertices(), v.NumEdges(), v.Degeneracy())
	for _, k := range keys {
		fmt.Printf("core %4d: %d vertices\n", k, hist[k])
	}
}

func stats(e *kcore.Engine) {
	v := e.View()
	n := v.NumVertices()
	m := v.NumEdges()
	avg := 0.0
	if n > 0 {
		avg = 2 * float64(m) / float64(n)
	}
	fmt.Printf("n=%d m=%d avg_deg=%.2f max_k=%d\n", n, m, avg, v.Degeneracy())
}

// explain maps engine errors to short operator-facing messages, branching
// on the structured sentinels.
func explain(err error) string {
	var be *kcore.BatchError
	pos := ""
	if errors.As(err, &be) {
		pos = fmt.Sprintf(" (pair %d: %d-%d)", be.Index+1, be.Update.U, be.Update.V)
	}
	switch {
	case errors.Is(err, kcore.ErrDuplicateEdge):
		return "edge already present" + pos
	case errors.Is(err, kcore.ErrMissingEdge):
		return "edge not present" + pos
	case errors.Is(err, kcore.ErrSelfLoop):
		return "self loops not supported" + pos
	case errors.Is(err, kcore.ErrVertexRange):
		return "vertex ids must be in [0, 2^31-1]" + pos
	default:
		return err.Error()
	}
}

// parseBatch turns "u v [u v ...]" fields into a batch of op updates.
func parseBatch(op kcore.Op, fields []string) (kcore.Batch, error) {
	if len(fields) == 0 || len(fields)%2 != 0 {
		return nil, fmt.Errorf("want an even number of vertex ids")
	}
	batch := make(kcore.Batch, 0, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		u, err1 := strconv.Atoi(fields[i])
		v, err2 := strconv.Atoi(fields[i+1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad vertex ids %q %q", fields[i], fields[i+1])
		}
		if op == kcore.OpAdd {
			batch = append(batch, kcore.Add(u, v))
		} else {
			batch = append(batch, kcore.Remove(u, v))
		}
	}
	return batch, nil
}

func stream(e *kcore.Engine) {
	fmt.Printf("loaded n=%d m=%d degeneracy=%d; reading ops from stdin\n",
		e.NumVertices(), e.NumEdges(), e.Degeneracy())
	var events <-chan kcore.CoreChange
	var cancelWatch func()
	var watchDropped atomic.Uint64
	var reportedDrops uint64
	drainWatch := func() {
		if events == nil {
			return
		}
		for {
			select {
			case ev := <-events:
				fmt.Printf("watch: core(%d) %d -> %d (seq %d)\n",
					ev.Vertex, ev.OldCore, ev.NewCore, ev.Seq)
			default:
				if d := watchDropped.Load(); d > reportedDrops {
					fmt.Printf("watch: %d events dropped (buffer full)\n", d-reportedDrops)
					reportedDrops = d
				}
				return
			}
		}
	}
	defer func() {
		if cancelWatch != nil {
			cancelWatch()
		}
	}()
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "q":
			return
		case "+", "-":
			op := kcore.OpAdd
			if fields[0] == "-" {
				op = kcore.OpRemove
			}
			batch, err := parseBatch(op, fields[1:])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			info, err := e.Apply(batch)
			if err != nil {
				fmt.Println("error:", explain(err))
				continue
			}
			drainWatch()
			fmt.Printf("ok applied=%d changed=%d visited=%d degeneracy=%d\n",
				info.Applied, len(info.Total.CoreChanged), info.Total.Visited, e.Degeneracy())
		case "?":
			if len(fields) != 2 {
				fmt.Println("error: want '? v'")
				continue
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("error: bad vertex id")
				continue
			}
			fmt.Printf("core(%d)=%d\n", v, e.Core(v))
		case "k":
			if len(fields) != 2 {
				fmt.Println("error: want 'k n'")
				continue
			}
			k, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("error: bad k")
				continue
			}
			fmt.Printf("|%d-core|=%d\n", k, len(e.KCore(k)))
		case "watch":
			if len(fields) != 2 {
				fmt.Println("error: want 'watch k'")
				continue
			}
			k, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("error: bad k")
				continue
			}
			if cancelWatch != nil {
				cancelWatch()
			}
			watchDropped.Store(0)
			reportedDrops = 0
			events, cancelWatch = e.Subscribe(kcore.WithMinCore(k),
				kcore.WithBuffer(1024), kcore.WithDropCounter(&watchDropped))
			fmt.Printf("watching core changes at level >= %d\n", k)
		default:
			fmt.Println("error: unknown op (use + - ? k watch quit)")
		}
	}
}
