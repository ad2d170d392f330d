package graph

import "math/bits"

// arcEntry is one indexed edge: its packed endpoint pair and the edge's slot
// in each endpoint's adjacency list, or -1 on a side that is not a hub.
type arcEntry struct {
	key  uint64   // lo<<32 | hi with lo < hi; 0 marks an empty slot
	slot [2]int32 // slot[0] in adj[lo], slot[1] in adj[hi]
}

// arcIndex is an open-addressing hash table of arcEntry with linear probing
// and backward-shift deletion (no tombstones). Its length is zero or a
// power of two, and the load stays at or below one half, so every probe
// sequence ends at an empty slot.
type arcIndex struct {
	tab   []arcEntry
	n     int  // occupied entries
	shift uint // 64 - log2(len(tab))
}

// minArcIndex is the smallest non-empty table length.
const minArcIndex = 16

// pack returns the key of the edge (u, v), u != v, both in [0, MaxVertex],
// and which entry side belongs to u. The larger endpoint is at least 1, so
// a key is never 0.
func pack(u, v int) (key uint64, su int) {
	if u < v {
		return uint64(u)<<32 | uint64(v), 0
	}
	return uint64(v)<<32 | uint64(u), 1
}

// home is key's first probe slot (Fibonacci hashing).
func (x *arcIndex) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the slot holding key and true, or the empty slot where key
// would be inserted and false. It returns -1, false on an empty table.
func (x *arcIndex) find(key uint64) (int, bool) {
	if len(x.tab) == 0 {
		return -1, false
	}
	mask := len(x.tab) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		switch x.tab[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// put stores a new entry in the empty slot i that find returned for key.
func (x *arcIndex) put(i int, key uint64, slot [2]int32) {
	x.tab[i] = arcEntry{key: key, slot: slot}
	x.n++
}

// reserve makes room for k more entries at load <= 1/2, doubling (and
// rehashing) as needed. Slots find returned before a reserve are stale.
func (x *arcIndex) reserve(k int) {
	need := 2 * (x.n + k)
	if need <= len(x.tab) {
		return
	}
	size := max(len(x.tab), minArcIndex)
	for size < need {
		size *= 2
	}
	old := x.tab
	x.tab = make([]arcEntry, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := x.home(e.key)
		for x.tab[i].key != 0 {
			i = (i + 1) & mask
		}
		x.tab[i] = e
	}
}

// del empties slot i and shifts later entries of its probe run back into
// the hole, so no tombstone is left behind.
func (x *arcIndex) del(i int) {
	mask := len(x.tab) - 1
	for j := (i + 1) & mask; x.tab[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its probe
		// path, cyclically in [home, j): its distance from home to j is at
		// least the distance from i to j.
		if (j-x.home(x.tab[j].key))&mask >= (j-i)&mask {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = arcEntry{}
	x.n--
}
