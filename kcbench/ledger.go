package main

import (
	"fmt"
	"io"
	"time"
)

// ledgerRow is one layer's mean self time per batch request.
type ledgerRow struct {
	layer, how string
	mean       time.Duration
}

// ledger accounts for the traced run's mean POST → ack time: the layer
// rows plus the residual add up to the traced end-to-end figure.
type ledger struct {
	n        int // batch requests accounted (measured, with a full span chain)
	updates  int // updates those requests applied
	rows     []ledgerRow
	traced   time.Duration // mean client span of the accounted requests
	untraced time.Duration // mean POST → ack of the untraced run

	reads []ledgerRow // read path: client span split at the handler
	nRead int
}

func (l *ledger) sum() time.Duration {
	var s time.Duration
	for _, r := range l.rows {
		s += r.mean
	}
	return s
}

// analyze turns the traced run's spans and the replays into per-layer
// metrics (set in m) and the ledger. res.batches, bare, w1, stored and
// kt.perBatch are indexed alike; stored is nil for in-memory workloads.
func analyze(m metrics, spans []span, res *loadResult, bare, w1, stored []time.Duration, kt *korderTimes) *ledger {
	self := selfTimes(spans)
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	child := func(i int, name string) int {
		for _, k := range kids[i] {
			if spans[k].Name == name && spans[k].End > 0 {
				return k
			}
		}
		return -1
	}

	l := &ledger{}
	var httpSelf, srvSelf, exec, client, bareX, w1X, storeX, kord []time.Duration
	k := 0 // client.batch spans pair with res.batches in order (one writer)
	for i, s := range spans {
		if s.Name != "client.batch" {
			continue
		}
		b := k
		k++
		if b >= len(res.batches) || !res.batches[b].measured {
			continue
		}
		h := child(i, "handler.batch")
		if h < 0 {
			continue
		}
		e := child(h, "execute")
		if e < 0 || bare[b] < 0 || w1[b] < 0 || stored != nil && stored[b] < 0 {
			continue
		}
		l.n++
		l.updates += res.batches[b].applied
		httpSelf = append(httpSelf, self[i])
		srvSelf = append(srvSelf, self[h])
		exec = append(exec, spans[e].dur())
		client = append(client, s.dur())
		bareX = append(bareX, bare[b])
		w1X = append(w1X, w1[b])
		if stored != nil {
			storeX = append(storeX, stored[b])
		}
		kord = append(kord, kt.perBatch[b])
	}

	var coreH, kcoreH, qHTTP, qClient, qHandler []time.Duration
	for i, s := range spans {
		if s.Name != "client.core" && s.Name != "client.kcore" {
			continue
		}
		h := child(i, "handler."+s.Name[len("client."):])
		if h < 0 {
			continue
		}
		if s.Name == "client.core" {
			coreH = append(coreH, spans[h].dur())
		} else {
			kcoreH = append(kcoreH, spans[h].dur())
		}
		qHTTP = append(qHTTP, self[i])
		qClient = append(qClient, s.dur())
		qHandler = append(qHandler, spans[h].dur())
	}
	l.nRead = len(qClient)

	p := func(name string, ds []time.Duration, q float64) {
		m.pct(name, durs(ds, time.Microsecond), q)
	}
	p("kcore.execute_p50_us", exec, 0.5)
	p("kcore.execute_p99_us", exec, 0.99)
	p("server.batch_self_p50_us", srvSelf, 0.5)
	p("server.batch_self_p99_us", srvSelf, 0.99)
	p("http.batch_p50_us", httpSelf, 0.5)
	p("server.core_p50_us", coreH, 0.5)
	p("server.kcore_p50_us", kcoreH, 0.5)
	p("http.query_p50_us", qHTTP, 0.5)
	m.set("kcore.overhead_ns_per_update", float64((total(bareX)-total(kord)).Nanoseconds())/float64(l.updates), l.updates)
	m.set("parallel.auto_over_w1", total(bareX).Seconds()/total(w1X).Seconds(), l.n)
	m.set("persist.hook_p50_us", quantile(durs(exec, time.Microsecond), 0.5)-quantile(durs(bareX, time.Microsecond), 0.5), l.n)

	persistRow := ledgerRow{"persist", "not on the path: in-memory server", 0}
	if stored != nil {
		persistRow = ledgerRow{"persist", "store replay execute - bare replay execute", meanDur(storeX) - meanDur(bareX)}
	}
	l.rows = []ledgerRow{
		{"http", "client span - handler span (client codec, loopback, net/http)", meanDur(httpSelf)},
		{"server", "handler span - execute span (route, decode, coalescer queue, ack)", meanDur(srvSelf)},
		{"kcore", "bare replay execute - korder replay (parallel planner, publish, notify, bookkeeping)", meanDur(bareX) - meanDur(kord)},
		{"korder", "korder.Maintainer Insert/Remove replay (order structure inside)", meanDur(kord)},
		persistRow,
	}
	l.traced = meanDur(client)
	if l.nRead > 0 {
		l.reads = []ledgerRow{
			{"http", "client span - handler span", meanDur(qHTTP)},
			{"server", "handler span (route, epoch load, encode)", meanDur(qHandler)},
		}
	}
	m.set("ledger.sum_us", us(l.sum()), l.n)
	m.set("ledger.traced_e2e_us", us(l.traced), l.n)
	m.set("ledger.residual_us", us(l.traced-l.sum()), l.n)
	return l
}

// print writes the ledger table.
func (l *ledger) print(w io.Writer, wl workloadSpec) {
	share := func(d time.Duration) float64 {
		if l.traced == 0 {
			return 0
		}
		return 100 * float64(d) / float64(l.traced)
	}
	fmt.Fprintf(w, "ledger %s: traced run, mean per batch request over %d requests (%d updates)\n", wl.name, l.n, l.updates)
	for _, r := range l.rows {
		fmt.Fprintf(w, "  %-8s %12.1f us %6.1f%%  %s\n", r.layer, us(r.mean), share(r.mean), r.how)
	}
	fmt.Fprintf(w, "  %-8s %12.1f us %6.1f%%\n", "sum", us(l.sum()), share(l.sum()))
	fmt.Fprintf(w, "  %-8s %12.1f us\n", "traced", us(l.traced))
	fmt.Fprintf(w, "  %-8s %12.1f us %6.1f%%  traced - sum: the traced server's execute span minus its replay"+
		" (GC, scheduler and cache interference from the serving goroutines); the replication publisher is"+
		" absent from the traced run because the tracer holds the apply tap\n",
		"residual", us(l.traced-l.sum()), share(l.traced-l.sum()))
	fmt.Fprintf(w, "  %-8s %12.1f us          mean POST -> ack of the untraced run against kcore-serve\n", "untraced", us(l.untraced))
	fmt.Fprintf(w, "  %-8s %12.1f us          traced - untraced (span recording; in-process vs separate server process;"+
		" minus the replication publisher's tap)\n", "overhead", us(l.traced-l.untraced))
	if l.nRead > 0 {
		fmt.Fprintf(w, "ledger %s reads: mean per read over %d reads (rows add up exactly: two spans)\n", wl.name, l.nRead)
		for _, r := range l.reads {
			fmt.Fprintf(w, "  %-8s %12.1f us  %s\n", r.layer, us(r.mean), r.how)
		}
	}
}
