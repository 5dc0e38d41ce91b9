// Package persist provides the persistent (immutable, structurally
// shared) containers behind O(1) state forking: the MicroC executor's
// memory. A Map is a hash array mapped trie (HAMT): Set and Delete
// copy only the O(log n) nodes on the path from the root to the
// affected leaf and share everything else with the original, so
// snapshotting a map is a pointer copy and sibling paths forked from
// the same state share all unchanged cells.
//
// Hashing is caller-supplied so keys can be hashed deterministically
// (e.g. by a stable object ID rather than a pointer), which keeps
// every downstream iteration order reproducible across runs.
package persist

// fanLog2 is the per-level branching factor exponent: 32-way nodes
// consume 5 hash bits per level.
const fanLog2 = 5

const fanMask = (1 << fanLog2) - 1

// Map is a persistent hash map. Construct with NewMap; the zero value
// panics on Set (it has no hash function). Map values are cheap to
// copy (a pointer, a length, and the hash function); every mutating
// method returns a new Map sharing structure with the receiver.
type Map[K comparable, V any] struct {
	root *node[K, V]
	size int
	hash func(K) uint64
}

// node is one bitmap-compressed HAMT node. slots holds leaves and
// child pointers in bitmap order; nodes are immutable after
// publication, which is what makes concurrent readers of sibling
// snapshots race-free.
type node[K comparable, V any] struct {
	// bitmap has bit i set when slot i is occupied.
	bitmap uint32
	// leafmap has bit i set when the occupant is a leaf (else a child).
	leafmap uint32
	slots   []slot[K, V]
}

// slot is a leaf (key/value plus its full hash, child==nil) or an
// interior child. Keys whose full 64-bit hashes collide chain through
// more.
type slot[K comparable, V any] struct {
	hash  uint64
	key   K
	val   V
	child *node[K, V]
	more  *collision[K, V]
}

type collision[K comparable, V any] struct {
	key  K
	val  V
	next *collision[K, V]
}

// NewMap returns an empty persistent map that hashes keys with hash.
func NewMap[K comparable, V any](hash func(K) uint64) Map[K, V] {
	return Map[K, V]{hash: hash}
}

// Len reports the number of keys.
func (m Map[K, V]) Len() int { return m.size }

// Get returns the value bound to key.
func (m Map[K, V]) Get(key K) (V, bool) {
	var zero V
	if m.root == nil {
		return zero, false
	}
	h := m.hash(key)
	n := m.root
	for depth := 0; ; depth++ {
		bit := uint32(1) << ((h >> (depth * fanLog2)) & fanMask)
		if n.bitmap&bit == 0 {
			return zero, false
		}
		idx := popcount(n.bitmap & (bit - 1))
		s := &n.slots[idx]
		if n.leafmap&bit != 0 {
			if s.key == key {
				return s.val, true
			}
			for c := s.more; c != nil; c = c.next {
				if c.key == key {
					return c.val, true
				}
			}
			return zero, false
		}
		n = s.child
	}
}

// Set returns a map with key bound to v. The receiver is unchanged.
func (m Map[K, V]) Set(key K, v V) Map[K, V] {
	h := m.hash(key)
	root, added := setNode(m.root, h, 0, key, v)
	out := m
	out.root = root
	if added {
		out.size++
	}
	return out
}

// Delete returns a map without key. The receiver is unchanged.
func (m Map[K, V]) Delete(key K) Map[K, V] {
	if m.root == nil {
		return m
	}
	h := m.hash(key)
	root, removed := deleteNode(m.root, h, 0, key)
	if !removed {
		return m
	}
	out := m
	out.root = root
	out.size--
	return out
}

// Range calls f for every key/value pair until f returns false.
// Iteration follows hash order: deterministic for a deterministic hash
// function but not a semantic order — callers needing one must sort.
func (m Map[K, V]) Range(f func(K, V) bool) {
	rangeNode(m.root, f)
}

func rangeNode[K comparable, V any](n *node[K, V], f func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i := range n.slots {
		s := &n.slots[i]
		if s.child != nil {
			if !rangeNode(s.child, f) {
				return false
			}
			continue
		}
		if !f(s.key, s.val) {
			return false
		}
		for c := s.more; c != nil; c = c.next {
			if !f(c.key, c.val) {
				return false
			}
		}
	}
	return true
}

// cloneWith copies n with slot idx replaced; other slots are shared.
func cloneWith[K comparable, V any](n *node[K, V], idx int, s slot[K, V]) *node[K, V] {
	slots := make([]slot[K, V], len(n.slots))
	copy(slots, n.slots)
	slots[idx] = s
	return &node[K, V]{bitmap: n.bitmap, leafmap: n.leafmap, slots: slots}
}

// setNode inserts (key, v) with hash h into n at the given trie depth,
// returning the replacement node and whether the key is new.
func setNode[K comparable, V any](n *node[K, V], h uint64, depth int, key K, v V) (*node[K, V], bool) {
	bit := uint32(1) << ((h >> (depth * fanLog2)) & fanMask)
	if n == nil {
		return &node[K, V]{bitmap: bit, leafmap: bit, slots: []slot[K, V]{{hash: h, key: key, val: v}}}, true
	}
	idx := popcount(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		// Free slot: splice in a new leaf.
		slots := make([]slot[K, V], len(n.slots)+1)
		copy(slots, n.slots[:idx])
		slots[idx] = slot[K, V]{hash: h, key: key, val: v}
		copy(slots[idx+1:], n.slots[idx:])
		return &node[K, V]{bitmap: n.bitmap | bit, leafmap: n.leafmap | bit, slots: slots}, true
	}
	s := n.slots[idx]
	if n.leafmap&bit == 0 {
		child, added := setNode(s.child, h, depth+1, key, v)
		return cloneWith(n, idx, slot[K, V]{child: child}), added
	}
	// Occupied leaf.
	if s.key == key {
		ns := s
		ns.val = v
		return cloneWith(n, idx, ns), false
	}
	if s.hash == h {
		// Full-hash collision: update in or prepend to the bucket.
		var rebuilt, tail *collision[K, V]
		for c := s.more; c != nil; c = c.next {
			cc := *c
			cc.next = nil
			if tail == nil {
				rebuilt, tail = &cc, &cc
			} else {
				tail.next = &cc
				tail = &cc
			}
			if c.key == key {
				tail.val = v
				tail.next = c.next // share the untouched suffix
				ns := s
				ns.more = rebuilt
				return cloneWith(n, idx, ns), false
			}
		}
		ns := s
		ns.more = &collision[K, V]{key: key, val: v, next: s.more}
		return cloneWith(n, idx, ns), true
	}
	// Two distinct hashes in one slot: push both one level down.
	child := splitLeaf(s, h, depth+1, key, v)
	return &node[K, V]{
		bitmap:  n.bitmap,
		leafmap: n.leafmap &^ bit,
		slots:   replaceSlot(n.slots, idx, slot[K, V]{child: child}),
	}, true
}

func replaceSlot[K comparable, V any](slots []slot[K, V], idx int, s slot[K, V]) []slot[K, V] {
	out := make([]slot[K, V], len(slots))
	copy(out, slots)
	out[idx] = s
	return out
}

// splitLeaf builds the subtree holding existing leaf old and the new
// key (hash newH); the two hashes differ and agree on the first depth
// chunks.
func splitLeaf[K comparable, V any](old slot[K, V], newH uint64, depth int, key K, v V) *node[K, V] {
	oldBit := uint32(1) << ((old.hash >> (depth * fanLog2)) & fanMask)
	newBit := uint32(1) << ((newH >> (depth * fanLog2)) & fanMask)
	if oldBit == newBit {
		child := splitLeaf(old, newH, depth+1, key, v)
		return &node[K, V]{bitmap: oldBit, slots: []slot[K, V]{{child: child}}}
	}
	n := &node[K, V]{bitmap: oldBit | newBit, leafmap: oldBit | newBit}
	nw := slot[K, V]{hash: newH, key: key, val: v}
	if oldBit < newBit {
		n.slots = []slot[K, V]{old, nw}
	} else {
		n.slots = []slot[K, V]{nw, old}
	}
	return n
}

// deleteNode removes key (hash h) from n, returning the replacement
// node (nil when the subtree empties) and whether a key was removed.
func deleteNode[K comparable, V any](n *node[K, V], h uint64, depth int, key K) (*node[K, V], bool) {
	bit := uint32(1) << ((h >> (depth * fanLog2)) & fanMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	idx := popcount(n.bitmap & (bit - 1))
	s := n.slots[idx]
	if n.leafmap&bit == 0 {
		child, removed := deleteNode(s.child, h, depth+1, key)
		if !removed {
			return n, false
		}
		if child == nil {
			return removeSlot(n, idx, bit), true
		}
		// Collapse a lone leaf child back into this level so lookup
		// depth does not outlive deletions.
		if len(child.slots) == 1 && child.leafmap != 0 {
			out := cloneWith(n, idx, child.slots[0])
			out.leafmap |= bit
			return out, true
		}
		return cloneWith(n, idx, slot[K, V]{child: child}), true
	}
	if s.key == key {
		if s.more != nil {
			ns := slot[K, V]{hash: s.hash, key: s.more.key, val: s.more.val, more: s.more.next}
			return cloneWith(n, idx, ns), true
		}
		return removeSlot(n, idx, bit), true
	}
	// Search the collision bucket, copying the prefix up to the match.
	var prefix []collision[K, V]
	for c := s.more; c != nil; c = c.next {
		if c.key == key {
			rest := c.next
			for i := len(prefix) - 1; i >= 0; i-- {
				cc := prefix[i]
				cc.next = rest
				rest = &cc
			}
			ns := s
			ns.more = rest
			return cloneWith(n, idx, ns), true
		}
		prefix = append(prefix, *c)
	}
	return n, false
}

// removeSlot drops slot idx from n; nil when it was the last.
func removeSlot[K comparable, V any](n *node[K, V], idx int, bit uint32) *node[K, V] {
	if len(n.slots) == 1 {
		return nil
	}
	slots := make([]slot[K, V], len(n.slots)-1)
	copy(slots, n.slots[:idx])
	copy(slots[idx:], n.slots[idx+1:])
	return &node[K, V]{bitmap: n.bitmap &^ bit, leafmap: n.leafmap &^ bit, slots: slots}
}

func popcount(x uint32) int {
	x = x - ((x >> 1) & 0x55555555)
	x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f
	return int((x * 0x01010101) >> 24)
}

// HashString is a deterministic FNV-1a string hasher for callers keyed
// by strings.
func HashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashU64 finalizes a 64-bit integer hash (the splitmix64 finalizer),
// for callers keyed by stable integer IDs.
func HashU64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
