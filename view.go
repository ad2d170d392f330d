package kcore

import "errors"

// View is an immutable, internally consistent snapshot of the engine's
// maintained state: core numbers, degeneracy, and graph size, all captured
// at the same update sequence number. A View answers any number of queries
// from the same state no matter how the engine moves on, so read-heavy
// callers take one View per decision instead of re-reading per query.
//
// A View is the engine's epoch snapshot (see epoch.go) wrapped in a stable
// API: capturing one is a single atomic pointer load — O(1), no locking, no
// copying — and it never changes after creation. It is safe for concurrent
// use by multiple goroutines and stays valid indefinitely no matter how the
// engine is mutated (or even unloaded) afterwards: nothing it returns
// aliases engine scratch.
type View struct {
	ep *epoch

	// Index capture (WithIndex only): the full maintained state needed to
	// reconstruct the engine bit-identically — see View.Index.
	index *IndexState
}

// ViewOption configures what a View captures beyond the default core
// snapshot.
type ViewOption func(*viewConfig)

type viewConfig struct{ index bool }

// WithIndex makes the View additionally capture the complete maintained
// index — edge list, core numbers, and the maintained k-order — retrievable
// via View.Index. Capture cost grows from O(1) to O(m + n) under one
// read-lock acquisition (the adjacency structure and maintained order are
// mutated in place, so unlike the core snapshot they cannot be read without
// the lock); it is how the durable snapshot writer (internal/persist)
// observes a consistent state without blocking writers while the file is
// written.
func WithIndex() ViewOption { return func(c *viewConfig) { c.index = true } }

// View captures a consistent snapshot of the current state. The default
// capture is one atomic epoch load — O(1), lock-free; WithIndex takes a
// read lock and copies the full maintained state in O(m + n).
func (e *Engine) View(opts ...ViewOption) *View {
	var cfg viewConfig
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.index {
		return &View{ep: e.loadEpoch()}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Under the read lock no publication is in flight, so the current
	// epoch describes exactly the state the index capture walks.
	return &View{ep: e.loadEpoch(), index: &IndexState{
		Seq:       e.seq,
		Vertices:  e.g.NumVertices(),
		Edges:     e.g.Edges(),
		Cores:     e.m.Cores(),
		Order:     e.m.Order(),
		Seed:      e.cfg.seed,
		Heuristic: e.cfg.heuristic,
		Structure: e.cfg.structure,
	}}
}

// Index returns the complete maintained state captured at View time, for
// serialization by a persistence layer. It requires the View to have been
// taken with WithIndex; otherwise it returns an error. The returned state
// shares the View's internal slices — callers must treat it as read-only.
func (v *View) Index() (*IndexState, error) {
	if v.index == nil {
		return nil, errors.New("kcore: View captured no index (take it with View(WithIndex()))")
	}
	return v.index, nil
}

// Seq is the engine update sequence number at which the snapshot was taken.
func (v *View) Seq() uint64 { return v.ep.seq }

// NumVertices reports the snapshot's vertex count (max vertex id + 1).
func (v *View) NumVertices() int { return v.ep.vertices }

// NumEdges reports the snapshot's edge count.
func (v *View) NumEdges() int { return v.ep.edges }

// Degeneracy returns the snapshot's maximum core number.
func (v *View) Degeneracy() int { return v.ep.maxCore }

// Core returns the snapshot core number of x (0 for unknown vertices).
func (v *View) Core(x int) int { return v.ep.core(x) }

// Cores returns a copy of the snapshot's core numbers, indexed by vertex.
func (v *View) Cores() []int { return v.ep.coresCopy() }

// KCore returns the vertices of the snapshot's k-core (core number >= k).
func (v *View) KCore(k int) []int {
	var out []int
	v.ep.forEach(func(x, c int) {
		if c >= k {
			out = append(out, x)
		}
	})
	return out
}
