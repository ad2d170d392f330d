package bench

import (
	"kcore/internal/korder"
	"kcore/internal/order"
	"kcore/internal/stats"
)

// AblationRow compares the two order-structure implementations (the paper's
// order-statistics treap vs the tag-list with O(1) comparisons) on the same
// insertion+removal workload.
type AblationRow struct {
	Dataset    string
	TreapSec   float64
	TagSec     float64
	TreapBuild float64
	TagBuild   float64
}

// AblationOrderStructure benchmarks the design choice of Section VI(A):
// the paper's O(log n) order-statistics treap against the tag list with
// O(1) comparisons that the engine uses. The treap stays reachable only
// here, as the paper-faithful ablation; it is still the structure to use
// when rank queries are needed, since the tag list trades rank for
// comparison speed.
func AblationOrderStructure(cfg Config) []AblationRow {
	cfg = cfg.withDefaults()
	var rows []AblationRow
	tb := &stats.Table{Header: []string{"dataset", "treap build(s)", "tag build(s)", "treap ins+rem(s)", "tag ins+rem(s)"}}
	for _, d := range cfg.Datasets {
		p := prepare(cfg, d)
		row := AblationRow{Dataset: d.Name}
		for _, kind := range []order.Kind{order.KindTreap, order.KindTagList} {
			g := p.g.Clone()
			var m *korder.Maintainer
			build := timeIt(func() {
				m = korder.New(g, korder.Options{OrderKind: kind, Seed: cfg.Seed})
			})
			run := timeIt(func() {
				for _, e := range p.edges {
					if _, err := m.Insert(e.U, e.V); err != nil {
						panic(err)
					}
				}
				for _, e := range p.edges {
					if _, err := m.Remove(e.U, e.V); err != nil {
						panic(err)
					}
				}
			})
			if kind == order.KindTreap {
				row.TreapBuild, row.TreapSec = build, run
			} else {
				row.TagBuild, row.TagSec = build, run
			}
		}
		rows = append(rows, row)
		tb.AddRow(d.Name, stats.FSec(row.TreapBuild), stats.FSec(row.TagBuild),
			stats.FSec(row.TreapSec), stats.FSec(row.TagSec))
	}
	fprintln(cfg.Out, "Ablation: order-statistics treap vs tag list (same workload)")
	fprintln(cfg.Out, tb.String())
	return rows
}

// HeuristicTimingRow times the full insertion workload under each k-order
// generation heuristic (the timing companion to Fig. 9's ratio view).
type HeuristicTimingRow struct {
	Dataset string
	Small   float64
	Large   float64
	Random  float64
}

// AblationHeuristicTiming measures how the initial-order heuristic affects
// end-to-end insertion time.
func AblationHeuristicTiming(cfg Config) []HeuristicTimingRow {
	cfg = cfg.withDefaults()
	var rows []HeuristicTimingRow
	tb := &stats.Table{Header: []string{"dataset", "small deg+ (s)", "large deg+ (s)", "random deg+ (s)"}}
	for _, d := range cfg.Datasets {
		p := prepare(cfg, d)
		row := HeuristicTimingRow{Dataset: d.Name}
		for hi, h := range heuristicsAll() {
			g := p.g.Clone()
			m := korder.New(g, korder.Options{Heuristic: h, Seed: cfg.Seed})
			sec := timeIt(func() {
				for _, e := range p.edges {
					if _, err := m.Insert(e.U, e.V); err != nil {
						panic(err)
					}
				}
			})
			switch hi {
			case 0:
				row.Small = sec
			case 1:
				row.Large = sec
			default:
				row.Random = sec
			}
		}
		rows = append(rows, row)
		tb.AddRow(d.Name, stats.FSec(row.Small), stats.FSec(row.Large), stats.FSec(row.Random))
	}
	fprintln(cfg.Out, "Ablation: insertion time under each k-order generation heuristic")
	fprintln(cfg.Out, tb.String())
	return rows
}
