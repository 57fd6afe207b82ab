package nf

import "lemur/internal/obs"

// Million-flow state tables. The stateful NFs (NAT, Monitor, Dedup, LB) keep
// per-flow state that the original implementation held in flat Go maps; at
// millions of concurrent flows those maps collapse under GC pressure (every
// entry is a separately scanned object) and rehash pauses. flowTable is the
// replacement: a power-of-two sharded open-addressing table over a flat
// entry arena, keyed by a caller-precomputed 64-bit flow hash.
//
//   - Sharded: the hash's top bits pick one of 16 shards, so shards grow
//     independently (bounded rehash pauses) and the layout is ready for
//     per-core partitioning when NF replication wants it.
//   - Open addressing: each shard probes a power-of-two slot index linearly
//     from the hash's low bits; deletion backward-shifts the cluster so no
//     tombstones accumulate under eviction churn.
//   - Arena entries: key/value pairs live in a flat per-shard slice reused
//     through a freelist, so steady-state insert/evict cycles allocate
//     nothing and the GC scans one object per shard, not one per flow.
//   - FIFO eviction: tables capped by an NF parameter (Monitor max_flows,
//     Dedup cache, LB affinity) evict the oldest live entry, tracked by a
//     fixed ring of (hash, key) pairs in insertion order. The retained
//     map-backed reference implementations (reference_test.go) use the same
//     policy, which is what keeps the two byte-identical under pressure —
//     the old "evict whatever map iteration yields first" was unobservable
//     only because no test pushed the tables past their caps.
//
// The table is deliberately not goroutine-safe: NF Process is single-
// threaded per instance (the paper's run-to-completion subgroups), and the
// simulator compiles one deployment per concurrent cell.

const (
	flowShardCount = 16        // power of two
	flowShardShift = 64 - 4    // hash top bits pick the shard
	flowSlotEmpty  = int32(-1) // empty open-addressing slot
	minShardSlots  = 16        // initial per-shard slot count
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

// tabEntry is one arena-resident key/value pair.
type tabEntry[K comparable, V any] struct {
	hash uint64
	key  K
	val  V
}

// tabShard is one open-addressing shard: a power-of-two slot index over the
// entry arena plus a freelist recycling evicted entries.
type tabShard[K comparable, V any] struct {
	slots   []int32 // arena indices, flowSlotEmpty when vacant
	mask    uint64
	entries []tabEntry[K, V]
	free    []int32
	n       int
}

func (s *tabShard[K, V]) init() {
	s.slots = make([]int32, minShardSlots)
	for i := range s.slots {
		s.slots[i] = flowSlotEmpty
	}
	s.mask = uint64(len(s.slots) - 1)
}

func (s *tabShard[K, V]) get(h uint64, k K) *V {
	if s.slots == nil {
		return nil
	}
	i := h & s.mask
	for {
		ei := s.slots[i]
		if ei == flowSlotEmpty {
			return nil
		}
		if e := &s.entries[ei]; e.hash == h && e.key == k {
			return &e.val
		}
		i = (i + 1) & s.mask
	}
}

// place probes for the first vacant slot and installs the arena index.
func (s *tabShard[K, V]) place(ei int32) {
	i := s.entries[ei].hash & s.mask
	for s.slots[i] != flowSlotEmpty {
		i = (i + 1) & s.mask
	}
	s.slots[i] = ei
}

func (s *tabShard[K, V]) grow() {
	old := s.slots
	s.slots = make([]int32, len(old)*2)
	for i := range s.slots {
		s.slots[i] = flowSlotEmpty
	}
	s.mask = uint64(len(s.slots) - 1)
	for _, ei := range old {
		if ei != flowSlotEmpty {
			s.place(ei)
		}
	}
}

// insert adds a key the caller has verified absent and returns a pointer to
// its zero value, valid until the next mutation of the shard.
func (s *tabShard[K, V]) insert(h uint64, k K) *V {
	if s.slots == nil {
		s.init()
	}
	// Load factor 3/4: grow before the probe chains degrade.
	if (s.n+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	var ei int32
	if nf := len(s.free); nf > 0 {
		ei = s.free[nf-1]
		s.free = s.free[:nf-1]
		s.entries[ei] = tabEntry[K, V]{hash: h, key: k}
	} else {
		s.entries = append(s.entries, tabEntry[K, V]{hash: h, key: k})
		ei = int32(len(s.entries) - 1)
	}
	s.place(ei)
	s.n++
	return &s.entries[ei].val
}

// del removes a key, backward-shifting the probe cluster so lookups never
// cross tombstones. Returns false if the key is absent.
func (s *tabShard[K, V]) del(h uint64, k K) bool {
	if s.slots == nil {
		return false
	}
	i := h & s.mask
	for {
		ei := s.slots[i]
		if ei == flowSlotEmpty {
			return false
		}
		if e := &s.entries[ei]; e.hash == h && e.key == k {
			var zero tabEntry[K, V]
			s.entries[ei] = zero // release key/value references to the GC
			s.free = append(s.free, ei)
			break
		}
		i = (i + 1) & s.mask
	}
	// Backward-shift deletion: pull each displaced cluster member into the
	// hole if its ideal slot lies at or before the hole (cyclically).
	j := i
	for {
		j = (j + 1) & s.mask
		ej := s.slots[j]
		if ej == flowSlotEmpty {
			break
		}
		ideal := s.entries[ej].hash & s.mask
		if ((j - ideal) & s.mask) >= ((j - i) & s.mask) {
			s.slots[i] = ej
			i = j
		}
	}
	s.slots[i] = flowSlotEmpty
	s.n--
	return true
}

// fifoEnt is one insertion-order record: the key plus its precomputed hash,
// so eviction never rehashes.
type fifoEnt[K comparable] struct {
	hash uint64
	key  K
}

// fifoRing is a growable circular buffer of live keys in insertion order.
// Only eviction removes keys, and the NFs never delete individually, so the
// ring head is always the oldest live entry.
type fifoRing[K comparable] struct {
	buf  []fifoEnt[K]
	head int
	n    int
}

func (r *fifoRing[K]) push(h uint64, k K) {
	if r.n == len(r.buf) {
		want := 2 * len(r.buf)
		if want < minShardSlots {
			want = minShardSlots
		}
		grown := make([]fifoEnt[K], want)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = fifoEnt[K]{hash: h, key: k}
	r.n++
}

func (r *fifoRing[K]) pop() fifoEnt[K] {
	e := r.buf[r.head]
	var zero fifoEnt[K]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

// flowTable is the sharded table handed to the NFs. max caps the live entry
// count; evict selects the over-capacity policy (FIFO eviction vs caller-
// handled rejection, which is what NAT does).
type flowTable[K comparable, V any] struct {
	shards [flowShardCount]tabShard[K, V]
	n      int
	max    int
	fifo   *fifoRing[K]
}

// newFlowTable builds a table capped at max entries (0 = unbounded). When
// evict is set the table maintains the FIFO ring evictOldest consumes;
// callers that reject instead (NAT) skip the ring's bookkeeping.
func newFlowTable[K comparable, V any](max int, evict bool) *flowTable[K, V] {
	t := &flowTable[K, V]{max: max}
	if evict {
		t.fifo = &fifoRing[K]{}
	}
	return t
}

func (t *flowTable[K, V]) count() int { return t.n }

// full reports whether the table is at its entry cap.
func (t *flowTable[K, V]) full() bool { return t.max > 0 && t.n >= t.max }

func (t *flowTable[K, V]) get(h uint64, k K) *V {
	return t.shards[h>>flowShardShift].get(h, k)
}

// insert adds an absent key and returns its zero-valued slot. The pointer is
// valid until the next insert/evict on the same table.
func (t *flowTable[K, V]) insert(h uint64, k K) *V {
	t.n++
	if t.fifo != nil {
		t.fifo.push(h, k)
	}
	return t.shards[h>>flowShardShift].insert(h, k)
}

// evictOldest removes the oldest live entry (FIFO), returning its key.
func (t *flowTable[K, V]) evictOldest() (K, bool) {
	if t.fifo == nil || t.fifo.n == 0 {
		var zero K
		return zero, false
	}
	e := t.fifo.pop()
	t.shards[e.hash>>flowShardShift].del(e.hash, e.key)
	t.n--
	return e.key, true
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
