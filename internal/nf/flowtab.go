package nf

import (
	"math/bits"

	"lemur/internal/obs"
)

// Million-flow state tables. The stateful NFs (NAT, Monitor, Dedup, LB) keep
// per-flow state that the original implementation held in flat Go maps; at
// millions of concurrent flows those maps collapse under GC pressure (every
// entry is a separately scanned object) and rehash pauses. flowTable is the
// replacement: one flat entry arena per table, indexed by a power-of-two
// sharded open-addressing slot array. The table owns its hash function
// (mix64, natHash or packet.FiveTuple.Hash), so an entry is only its value
// and key: 8 B for Dedup (a bare fingerprint), 20 B for LB, 8 B for NAT and
// 48 B for Monitor.
//
//   - The arena is the FIFO: entries live in a ring in insertion order
//     (position (head+i) % size holds the i-th oldest, its age i). insert
//     writes at the tail and evictOldest pops the head; the NFs never delete
//     any other entry (NAT never deletes at all), so no freelist and no
//     second copy of the keys is needed to know eviction order. Tables
//     capped by an NF parameter (Monitor max_flows, Dedup cache, LB
//     affinity) therefore evict the oldest live entry, as the map-backed
//     references (reference_test.go) do — which is what keeps the two
//     byte-identical under pressure. Dedup stores no slot ID: it hands IDs
//     out in insertion order, so an entry's ID follows from its age.
//   - Sharded index: the hash's top bits pick one of 16 shards, each a slot
//     array of arena positions probed linearly from the hash's low bits.
//     Shards grow independently (bounded rehash pauses); eviction
//     backward-shifts the probe cluster so no tombstones accumulate. No
//     entry stores its hash: a lookup compares keys, and growShard and the
//     backward shift rehash the few keys they move.
//   - Segmented arena: segment 0 holds positions [0, 16) and segment k ≥ 1
//     holds [16·2^(k-1), 16·2^k), the last one cut at the cap. A position
//     finds its segment with one bits.Len. Growth allocates the next segment
//     and copies no entry, so filling a table allocates its final arena once
//     and steady-state evict/insert cycles allocate nothing. Only growing a
//     wrapped ring (an evictOldest below the cap, which no NF does) moves
//     entries: the ring is rotated in place to head 0 and the slots
//     renumbered once. The GC scans a few segments per table, not one
//     object per flow.
//
// The table is deliberately not goroutine-safe: NF Process is single-
// threaded per instance (the paper's run-to-completion subgroups), and the
// simulator compiles one deployment per concurrent cell.

const (
	flowShardCount = 16              // power of two
	flowShardShift = 64 - 4          // hash top bits pick the shard
	flowSlotEmpty  = int32(-1)       // empty open-addressing slot
	minShardSlots  = 16              // initial per-shard slot count
	arenaShift     = 4               // log2 of segment 0's length
	minArena       = 1 << arenaShift // segment 0's length; segment k ≥ 1 holds [minArena<<(k-1), minArena<<k)
	maxSegments    = 28              // positions are int32: segment 27 ends at 2^31
)

// mix64 finalizes a 64-bit key into a well-distributed hash (splitmix64
// finalizer). Used for table keys that are not five-tuples: NAT (addr,port)
// pairs packed into a uint64 and Dedup chunk fingerprints.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// tabEntry is one arena-resident key/value pair, value first so that a
// zero-size value (Dedup's) adds no trailing padding.
type tabEntry[K comparable, V any] struct {
	val V
	key K
}

// tabShard is one shard's open-addressing index into the table's arena.
type tabShard struct {
	slots []int32 // arena positions, flowSlotEmpty when vacant
	mask  uint64
	n     int
}

// flowTable is the sharded table handed to the NFs. max caps the live entry
// count; evict selects the over-capacity policy (FIFO eviction vs caller-
// handled rejection, which is what NAT does).
type flowTable[K comparable, V any] struct {
	segs   [maxSegments][]tabEntry[K, V] // the arena: an insertion-order ring of the n live entries
	size   int                           // positions allocated, the ring's length
	head   int                           // arena position of the oldest live entry
	n      int
	max    int
	evict  bool
	hash   func(K) uint64
	shards [flowShardCount]tabShard
}

// newFlowTable builds a table capped at max entries (≤ 0 = unbounded) over
// the given key hash. Only a table built with evict set gives up entries to
// evictOldest; callers that reject instead (NAT) never lose one.
func newFlowTable[K comparable, V any](max int, evict bool, hash func(K) uint64) *flowTable[K, V] {
	return &flowTable[K, V]{max: max, evict: evict, hash: hash}
}

func (t *flowTable[K, V]) count() int { return t.n }

// segBase is the first arena position of segment k: minArena<<(k-1) for
// k ≥ 1, and 0 for k = 0, whose minArena>>1 is the one bit cleared.
func segBase(k int) int { return minArena << k >> 1 &^ (minArena >> 1) }

// at returns the entry at arena position i.
func (t *flowTable[K, V]) at(i int32) *tabEntry[K, V] {
	k := bits.Len32(uint32(i) >> arenaShift)
	return &t.segs[k][int(i)-segBase(k)]
}

// full reports whether the table is at its entry cap.
func (t *flowTable[K, V]) full() bool { return t.max > 0 && t.n >= t.max }

// lookup returns k's arena position, or flowSlotEmpty when k is absent.
func (t *flowTable[K, V]) lookup(k K) int32 {
	h := t.hash(k)
	s := &t.shards[h>>flowShardShift]
	if s.n == 0 {
		return flowSlotEmpty
	}
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		if ei := s.slots[i]; ei == flowSlotEmpty || t.at(ei).key == k {
			return ei
		}
	}
}

// get returns k's value slot, or nil when k is absent. The pointer is valid
// until the next insert/evict on the same table.
func (t *flowTable[K, V]) get(k K) *V {
	if ei := t.lookup(k); ei != flowSlotEmpty {
		return &t.at(ei).val
	}
	return nil
}

// age returns how many live entries are older than the one at arena
// position i: its distance from the ring's head.
func (t *flowTable[K, V]) age(i int32) int {
	a := int(i) - t.head
	if a < 0 {
		a += t.size
	}
	return a
}

// insert adds an absent key at the ring's tail and returns its zero-valued
// slot. The pointer is valid until the next insert/evict on the same table.
func (t *flowTable[K, V]) insert(k K) *V {
	if t.n == t.size {
		t.grow()
	}
	ei := t.head + t.n
	if ei >= t.size {
		ei -= t.size
	}
	t.n++
	e := t.at(int32(ei))
	*e = tabEntry[K, V]{key: k}
	h := t.hash(k)
	s := &t.shards[h>>flowShardShift]
	// Load factor 3/4: grow the index before the probe chains degrade.
	if (s.n+1)*4 > len(s.slots)*3 {
		t.growShard(s)
	}
	t.place(s, h, int32(ei))
	s.n++
	return &e.val
}

// place probes for the first vacant slot and installs the arena position.
func (t *flowTable[K, V]) place(s *tabShard, h uint64, ei int32) {
	i := h & s.mask
	for s.slots[i] != flowSlotEmpty {
		i = (i + 1) & s.mask
	}
	s.slots[i] = ei
}

func (t *flowTable[K, V]) growShard(s *tabShard) {
	old := s.slots
	s.slots = make([]int32, max(2*len(old), minShardSlots))
	for i := range s.slots {
		s.slots[i] = flowSlotEmpty
	}
	s.mask = uint64(len(s.slots) - 1)
	for _, ei := range old {
		if ei != flowSlotEmpty {
			t.place(s, t.hash(t.at(ei).key), ei)
		}
	}
}

// grow allocates the segment that starts at the full ring's end, cut at
// max. If the ring had wrapped, it is rotated to head 0 and every slot's
// position moves back by head.
func (t *flowTable[K, V]) grow() {
	old := t.size
	k := bits.Len(uint(old) >> arenaShift)
	end := minArena << k
	if t.max > old {
		end = min(end, t.max)
	}
	seg := make([]tabEntry[K, V], end-segBase(k))
	// A segment cut at the cap has entries only when a caller inserts past
	// the cap; it grows to its full length.
	copy(seg, t.segs[k])
	t.segs[k], t.size = seg, end
	if t.head == 0 {
		return
	}
	// Three reversals rotate [0, old) left by head, in place.
	t.reverse(0, t.head)
	t.reverse(t.head, old)
	t.reverse(0, old)
	head := int32(t.head)
	for si := range t.shards {
		slots := t.shards[si].slots
		for i, ei := range slots {
			if ei == flowSlotEmpty {
				continue
			}
			if ei -= head; ei < 0 {
				ei += int32(old)
			}
			slots[i] = ei
		}
	}
	t.head = 0
}

// reverse reverses the entries at arena positions [i, j).
func (t *flowTable[K, V]) reverse(i, j int) {
	for j--; i < j; i, j = i+1, j-1 {
		a, b := t.at(int32(i)), t.at(int32(j))
		*a, *b = *b, *a
	}
}

// evictOldest removes the oldest live entry (the ring's head), returning its
// key.
func (t *flowTable[K, V]) evictOldest() (K, bool) {
	if !t.evict || t.n == 0 {
		var zero K
		return zero, false
	}
	e := t.at(int32(t.head))
	k := e.key
	h := t.hash(k)
	s := &t.shards[h>>flowShardShift]
	i := h & s.mask
	for s.slots[i] != int32(t.head) {
		i = (i + 1) & s.mask
	}
	// Backward-shift deletion: pull each displaced cluster member into the
	// hole if its ideal slot lies at or before the hole (cyclically), so
	// lookups never cross tombstones.
	for j := (i + 1) & s.mask; s.slots[j] != flowSlotEmpty; j = (j + 1) & s.mask {
		ideal := t.hash(t.at(s.slots[j]).key) & s.mask
		if (j-ideal)&s.mask >= (j-i)&s.mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = flowSlotEmpty
	s.n--
	*e = tabEntry[K, V]{} // release key/value references to the GC
	if t.head++; t.head == t.size {
		t.head = 0
	}
	t.n--
	return k, true
}

// State-table observability. Every stateful NF exports its live occupancy
// as a gauge and its pressure events (evictions, NAT port exhaustion) as
// counters, labelled by NF class and instance name. Both table backends
// wire the same handles in the same order, so metrics snapshots stay
// byte-identical between them.

// stateObs bundles the occupancy gauge and eviction counter one stateful NF
// instance updates as its table churns.
type stateObs struct {
	entries *obs.Gauge
	evicted *obs.Counter
}

func newStateObs(class, name string) stateObs {
	lbls := []obs.Label{obs.L("class", class), obs.L("nf", name)}
	return stateObs{
		entries: obs.G("lemur_nf_state_entries", lbls...),
		evicted: obs.C("lemur_nf_state_evictions_total", lbls...),
	}
}

// SyncStateObs publishes a stateful NF's current table occupancy to its
// lemur_nf_state_entries gauge; stateless NFs are a no-op. Eviction and
// exhaustion counters increment inline as the events happen, but occupancy
// is only synced on demand — the simulator calls this at end of run, so the
// gauge reflects the live table even when NF state outlives an obs registry
// reset (a warm testbed simulated twice).
func SyncStateObs(n NF) {
	if s, ok := n.(interface{ syncStateObs() }); ok {
		s.syncStateObs()
	}
}

func (n *NAT) syncStateObs()     { n.so.entries.Set(float64(n.out.count())) }
func (m *Monitor) syncStateObs() { m.so.entries.Set(float64(m.flows.count())) }
func (d *Dedup) syncStateObs()   { d.so.entries.Set(float64(d.cache.count())) }

// An LB with the affinity table disabled has no occupancy to report.
func (l *LB) syncStateObs() {
	if l.affinity != nil {
		l.so.entries.Set(float64(l.affinity.count()))
	}
}
