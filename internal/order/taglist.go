package order

import "math"

// TagList is a labeled order-maintenance list in the style of Dietz and
// Sleator: every element carries a 64-bit tag and order comparison is a tag
// comparison (O(1)). An interior insertion takes the midpoint of its
// neighbors' tags. An insertion at either end takes a fixed stride
// (tagStride) from its neighbor instead, so the end-append patterns of core
// maintenance — the level builds, OrderRemoval's moves to the back of
// O_{K-1} and OrderInsert's moves to the front of O_{K+1} — consume the end
// gaps linearly instead of halving them. When a gap is exhausted the whole
// list is renumbered uniformly across the middle half of the tag space,
// which leaves a quarter of the space free at each end for further
// appends.
//
// TagList is the default order structure: Less and Key cost O(1) instead
// of the treap's O(log n), at the price of O(n) Rank (used only in
// tests/diagnostics).
//
// Nodes live in an Arena (tags in the arena's key column); steady-state
// updates allocate nothing. Several lists may share one arena (see Arena).
type TagList struct {
	a          *Arena
	id         int32
	head, tail int32
	n          int
	renumbers  int // diagnostic: how many global renumberings happened
}

var _ List = (*TagList)(nil)

// NewTagList returns an empty TagList on its own private arena.
func NewTagList() *TagList { return NewTagListOn(NewArena()) }

// NewTagListOn returns an empty TagList whose nodes live on the shared
// arena a. Lists sharing an arena must hold disjoint vertex sets.
func NewTagListOn(a *Arena) *TagList {
	return &TagList{a: a, id: a.register()}
}

// Len reports the number of elements.
func (t *TagList) Len() int { return t.n }

// Contains reports whether v is present.
func (t *TagList) Contains(v int) bool { return t.a.handle(t.id, v) != 0 }

// Renumbers reports how many global renumberings occurred (diagnostics).
func (t *TagList) Renumbers() int { return t.renumbers }

func (t *TagList) newNode(v int) int32 {
	h := t.a.alloc(t.id, v, 0, "taglist")
	t.n++
	return h
}

// lowerTag returns the tag bound below n (exclusive); 0 when n is the head.
func (t *TagList) lowerTag(n int32) uint64 {
	if t.a.prev[n] == 0 {
		return 0
	}
	return t.a.key[t.a.prev[n]]
}

// upperTag returns the tag bound above n (exclusive); MaxUint64 when n is
// the tail.
func (t *TagList) upperTag(n int32) uint64 {
	if t.a.next[n] == 0 {
		return math.MaxUint64
	}
	return t.a.key[t.a.next[n]]
}

// tagStride is the tag distance an end insertion keeps from its neighbor
// while the end gap allows it: each quarter of the tag space that renumber
// leaves free holds 2^30 end appends.
const tagStride = 1 << 32

// assignTag picks a tag strictly between the neighbors of n, renumbering
// first when the gap is exhausted. n must already be linked into the DLL.
func (t *TagList) assignTag(n int32) {
	a := t.a
	lo, hi := t.lowerTag(n), t.upperTag(n)
	switch gap := hi - lo; {
	case gap < 2:
		t.renumber()
	case gap > tagStride && a.next[n] == 0 && a.prev[n] != 0: // new tail
		a.key[n] = lo + tagStride
	case gap > tagStride && a.prev[n] == 0 && a.next[n] != 0: // new head
		a.key[n] = hi - tagStride
	default:
		a.key[n] = lo + gap/2
	}
}

// renumber spreads all tags uniformly across the middle half of the 64-bit
// space, leaving a quarter free at each end for end insertions.
func (t *TagList) renumber() {
	t.renumbers++
	const base = 1 << 62
	step := (1<<63)/(uint64(t.n)+1) | 1
	tag := base + step
	for e := t.head; e != 0; e = t.a.next[e] {
		t.a.key[e] = tag
		tag += step
	}
}

// PushFront inserts v at the beginning.
func (t *TagList) PushFront(v int) {
	a := t.a
	n := t.newNode(v)
	a.next[n] = t.head
	if t.head != 0 {
		a.prev[t.head] = n
	}
	t.head = n
	if t.tail == 0 {
		t.tail = n
	}
	t.assignTag(n)
}

// PushBack inserts v at the end.
func (t *TagList) PushBack(v int) {
	a := t.a
	n := t.newNode(v)
	a.prev[n] = t.tail
	if t.tail != 0 {
		a.next[t.tail] = n
	}
	t.tail = n
	if t.head == 0 {
		t.head = n
	}
	t.assignTag(n)
}

// InsertAfter inserts v immediately after after.
func (t *TagList) InsertAfter(after, v int) {
	a := t.a
	x := a.mustHandle(t.id, after, "InsertAfter", "taglist")
	n := t.newNode(v)
	a.prev[n] = x
	a.next[n] = a.next[x]
	if a.next[x] != 0 {
		a.prev[a.next[x]] = n
	} else {
		t.tail = n
	}
	a.next[x] = n
	t.assignTag(n)
}

// InsertBefore inserts v immediately before before.
func (t *TagList) InsertBefore(before, v int) {
	a := t.a
	x := a.mustHandle(t.id, before, "InsertBefore", "taglist")
	n := t.newNode(v)
	a.next[n] = x
	a.prev[n] = a.prev[x]
	if a.prev[x] != 0 {
		a.next[a.prev[x]] = n
	} else {
		t.head = n
	}
	a.prev[x] = n
	t.assignTag(n)
}

// Remove deletes v, returning its node handle to the arena's free list.
func (t *TagList) Remove(v int) {
	a := t.a
	n := a.mustHandle(t.id, v, "Remove", "taglist")
	if a.prev[n] != 0 {
		a.next[a.prev[n]] = a.next[n]
	} else {
		t.head = a.next[n]
	}
	if a.next[n] != 0 {
		a.prev[a.next[n]] = a.prev[n]
	} else {
		t.tail = a.prev[n]
	}
	t.n--
	a.release(n)
}

// Rank returns the 1-based position of v. O(n): TagList trades rank queries
// for O(1) comparisons; use Treap when ranks are needed.
func (t *TagList) Rank(v int) int {
	n := t.a.mustHandle(t.id, v, "Rank", "taglist")
	r := 1
	for e := t.head; e != n; e = t.a.next[e] {
		r++
	}
	return r
}

// Key returns the tag as a position-monotone key in O(1).
func (t *TagList) Key(v int) uint64 {
	n := t.a.mustHandle(t.id, v, "Key", "taglist")
	return t.a.key[n]
}

// Less reports whether a precedes b in O(1).
func (t *TagList) Less(a, b int) bool {
	if a == b {
		return false
	}
	na := t.a.mustHandle(t.id, a, "Less", "taglist")
	nb := t.a.mustHandle(t.id, b, "Less", "taglist")
	return t.a.key[na] < t.a.key[nb]
}

// Front returns the first element.
func (t *TagList) Front() (int, bool) {
	if t.head == 0 {
		return 0, false
	}
	return int(t.a.vert[t.head]), true
}

// Back returns the last element.
func (t *TagList) Back() (int, bool) {
	if t.tail == 0 {
		return 0, false
	}
	return int(t.a.vert[t.tail]), true
}

// Next returns the element after v.
func (t *TagList) Next(v int) (int, bool) {
	n := t.a.mustHandle(t.id, v, "Next", "taglist")
	if t.a.next[n] == 0 {
		return 0, false
	}
	return int(t.a.vert[t.a.next[n]]), true
}

// Prev returns the element before v.
func (t *TagList) Prev(v int) (int, bool) {
	n := t.a.mustHandle(t.id, v, "Prev", "taglist")
	if t.a.prev[n] == 0 {
		return 0, false
	}
	return int(t.a.vert[t.a.prev[n]]), true
}
