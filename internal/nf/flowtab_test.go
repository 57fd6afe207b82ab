package nf

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"lemur/internal/packet"
)

// badHash maps keys onto 4 shards and 8 slot residues so probe chains get
// deep and evictions exercise the backward-shift path. It is a valid (if
// terrible) hash: deterministic per key. The oracle hands it to the table.
func badHash(k uint64) uint64 {
	return (k%4)<<flowShardShift | (k % 8)
}

// tableOracle drives a flowTable under badHash and a plain map plus an
// insertion-order queue with the same operations, failing on the first
// disagreement. Inserts into a full table evict first, as the NFs do.
type tableOracle struct {
	t     testing.TB
	tab   *flowTable[uint64, uint64]
	vals  map[uint64]uint64
	queue []uint64 // live keys, oldest first

	wraps        int // evictions that moved the ring's head back to 0
	wrappedGrows int // arena growths with the ring's head not at 0
}

func newTableOracle(t testing.TB, max int) *tableOracle {
	return &tableOracle{t: t, tab: newFlowTable[uint64, uint64](max, true, badHash), vals: map[uint64]uint64{}}
}

// insert adds k (a no-op but a lookup when k is live).
func (o *tableOracle) insert(k, v uint64) {
	if _, live := o.vals[k]; live {
		o.get(k)
		return
	}
	if o.tab.full() {
		o.evict()
	}
	if o.tab.n == o.tab.size && o.tab.head != 0 {
		o.wrappedGrows++
	}
	*o.tab.insert(k) = v
	o.vals[k] = v
	o.queue = append(o.queue, k)
	o.checkCount()
}

func (o *tableOracle) get(k uint64) {
	got := o.tab.get(k)
	want, live := o.vals[k]
	if live != (got != nil) {
		o.t.Fatalf("get(%d) present=%v, oracle=%v", k, got != nil, live)
	}
	if live && *got != want {
		o.t.Fatalf("get(%d) = %d, want %d", k, *got, want)
	}
}

func (o *tableOracle) evict() {
	k, ok := o.tab.evictOldest()
	if ok != (len(o.queue) > 0) {
		o.t.Fatalf("evictOldest ok=%v with %d live keys", ok, len(o.queue))
	}
	if !ok {
		return
	}
	if k != o.queue[0] {
		o.t.Fatalf("evicted %d, want oldest %d", k, o.queue[0])
	}
	delete(o.vals, k)
	o.queue = o.queue[1:]
	if o.tab.head == 0 {
		o.wraps++
	}
	o.get(k)
	o.checkCount()
}

func (o *tableOracle) checkCount() {
	n := 0
	for i := range o.tab.shards {
		n += o.tab.shards[i].n
	}
	if o.tab.count() != len(o.vals) || n != len(o.vals) {
		o.t.Fatalf("count %d, shard sum %d, oracle %d", o.tab.count(), n, len(o.vals))
	}
	if o.tab.max > 0 && o.tab.size > o.tab.max {
		o.t.Fatalf("arena %d outgrew cap %d", o.tab.size, o.tab.max)
	}
}

// drain checks every live key resolves, then evicts them all in order.
func (o *tableOracle) drain() {
	for k := range o.vals {
		o.get(k)
	}
	for len(o.queue) > 0 {
		o.evict()
	}
	o.evict()
}

// TestFlowTableAgainstOracle drives the table with random insert, get and
// evictOldest under a collision-heavy hash and checks every result against
// a map plus an insertion-order queue: probe chains, index growth,
// backward-shift eviction, the ring's wraparound and arena growth — capped,
// uncapped and while the ring is wrapped.
func TestFlowTableAgainstOracle(t *testing.T) {
	cases := []struct {
		name           string
		max            int
		insert, evict  int // per-mille of ops; the rest are lookups
		minWraps       int
		minWrappedGrow int
	}{
		{"uncapped", 0, 500, 300, 1, 0},
		{"small-cap", 37, 600, 100, 100, 0},
		{"grow-wrapped", 0, 600, 250, 1, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			o := newTableOracle(t, tc.max)
			for op := 0; op < 20000; op++ {
				k := uint64(rng.Intn(4096))
				switch r := rng.Intn(1000); {
				case r < tc.insert:
					o.insert(k, rng.Uint64())
				case r < tc.insert+tc.evict:
					o.evict()
				default:
					o.get(k)
				}
			}
			if o.wraps < tc.minWraps || o.wrappedGrows < tc.minWrappedGrow {
				t.Fatalf("%d wraps, %d wrapped growths: want at least %d and %d",
					o.wraps, o.wrappedGrows, tc.minWraps, tc.minWrappedGrow)
			}
			o.drain()
		})
	}
}

// FuzzFlowTable decodes its input as a cap byte and then one op a byte (two
// low bits: insert, insert, get, evictOldest; the rest: a key of 64) and
// checks the table against the same oracle.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 0, 4, 8, 12, 3, 16, 20, 3, 3, 24, 2, 6})
	f.Add([]byte{5, 0, 4, 8, 12, 16, 20, 24, 28, 3, 32, 36, 2, 10, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		o := newTableOracle(t, int(data[0]%32))
		for i, b := range data[1:] {
			k := uint64(b >> 2)
			switch b & 3 {
			case 0, 1:
				o.insert(k, uint64(i))
			case 2:
				o.get(k)
			case 3:
				o.evict()
			}
		}
		o.drain()
	})
}

// TestFlowTableAllocBound holds the arena to what it holds. Filling a table
// of 16-B entries (a uint64 key, a uint32 value) to its cap allocates at
// most 1.35× its final arena plus slot index: the arena's segments are
// allocated once each and never copied (doubling and copying a flat arena
// was 2.0×), so only the shards' slot arrays, which open addressing needs
// contiguous, still double. Steady-state evict-then-insert cycles at the cap
// allocate nothing.
func TestFlowTableAllocBound(t *testing.T) {
	const tableCap = 65536
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := newFlowTable[uint64, uint32](tableCap, true, mix64)
	for k := uint64(0); k < tableCap; k++ {
		*tab.insert(k) = uint32(k)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	var final uint64
	for _, seg := range tab.segs {
		final += uint64(cap(seg)) * uint64(unsafe.Sizeof(tabEntry[uint64, uint32]{}))
	}
	for i := range tab.shards {
		final += uint64(cap(tab.shards[i].slots)) * uint64(unsafe.Sizeof(int32(0)))
	}
	if tab.size != tableCap {
		t.Fatalf("arena %d entries at cap %d", tab.size, tableCap)
	}
	t.Logf("filling to cap: %d B allocated for a %d B table", allocated, final)
	if float64(allocated) > 1.35*float64(final) {
		t.Errorf("filling to cap allocated %d B for a %d B table (%.2fx, want <= 1.35x)",
			allocated, final, float64(allocated)/float64(final))
	}
	next := uint64(tableCap)
	allocs := testing.AllocsPerRun(10000, func() {
		tab.evictOldest()
		*tab.insert(next) = uint32(next)
		next++
	})
	if allocs != 0 {
		t.Errorf("evict-then-insert at the cap allocated %.2f objects per cycle, want 0", allocs)
	}
}

// TestFlowTableEntryLayout pins the arena entry of each stateful NF's table:
// its value and key and nothing else, value first so that Dedup's zero-size
// value adds no padding. A stored hash or a field reorder fails here.
func TestFlowTableEntryLayout(t *testing.T) {
	var (
		d Dedup
		l LB
		n NAT
		m Monitor
	)
	for _, c := range []struct {
		nf        string
		got, want uintptr
	}{
		{"Dedup", unsafe.Sizeof(d.cache.segs[0][0]), 8},
		{"LB", unsafe.Sizeof(l.affinity.segs[0][0]), 20},
		{"NAT", unsafe.Sizeof(n.out.segs[0][0]), 8},
		{"Monitor", unsafe.Sizeof(m.flows.segs[0][0]), 48},
	} {
		if c.got != c.want {
			t.Errorf("%s table entry is %d B, want %d", c.nf, c.got, c.want)
		}
	}
}

// TestFlowTableFIFOEviction checks the capped table's eviction order is
// exactly insertion order, interleaved with inserts, across ring growth and
// wraparound.
func TestFlowTableFIFOEviction(t *testing.T) {
	tab := newFlowTable[uint64, int](0, true, mix64)
	next := uint64(0)
	expect := []uint64{}
	push := func() {
		*tab.insert(next) = int(next)
		expect = append(expect, next)
		next++
	}
	popCheck := func() {
		k, ok := tab.evictOldest()
		if !ok {
			t.Fatal("evictOldest on non-empty table failed")
		}
		if k != expect[0] {
			t.Fatalf("evicted %d, want %d (FIFO)", k, expect[0])
		}
		if tab.get(k) != nil {
			t.Fatalf("evicted key %d still resolves", k)
		}
		expect = expect[1:]
	}
	// Interleave so the ring head wraps and the buffer grows mid-stream.
	for i := 0; i < 40; i++ {
		push()
	}
	for i := 0; i < 25; i++ {
		popCheck()
	}
	for i := 0; i < 100; i++ {
		push()
		if i%3 == 0 {
			popCheck()
		}
	}
	if tab.count() != len(expect) {
		t.Fatalf("count %d != expected live %d", tab.count(), len(expect))
	}
	for tab.count() > 0 {
		popCheck()
	}
	if _, ok := tab.evictOldest(); ok {
		t.Error("evictOldest on empty table reported success")
	}
}

// TestFlowTableFull checks the cap accounting NAT's rejection path relies on.
func TestFlowTableFull(t *testing.T) {
	tab := newFlowTable[uint64, int](3, false, mix64)
	for i := uint64(0); i < 3; i++ {
		if tab.full() {
			t.Fatalf("full at %d/3", i)
		}
		tab.insert(i)
	}
	if !tab.full() {
		t.Error("not full at cap")
	}
	// A caller inserting past the cap (no NF does) grows the segment cut at
	// the cap to its full length and loses nothing.
	for i := uint64(3); i < 40; i++ {
		*tab.insert(i) = int(i)
	}
	for i := uint64(0); i < 40; i++ {
		if v := tab.get(i); v == nil || (i >= 3 && *v != int(i)) {
			t.Fatalf("key %d lost past the cap", i)
		}
	}
	unbounded := newFlowTable[uint64, int](0, false, mix64)
	for i := uint64(0); i < 100; i++ {
		unbounded.insert(i)
	}
	if unbounded.full() {
		t.Error("unbounded table reported full")
	}
}

// mkPair builds the same NF over the sharded tables and over the references.
func mkPair(t *testing.T, class, name string, params Params) (sharded, ref NF) {
	t.Helper()
	sharded, err := Registry[class].New(name, params)
	if err != nil {
		t.Fatal(err)
	}
	WithReferenceTables(func() { ref, err = Registry[class].New(name, params) })
	if err != nil {
		t.Fatal(err)
	}
	return sharded, ref
}

// TestShardedMatchesReference drives every stateful NF class and its
// map-backed reference with the same randomized packet stream — sized to
// overflow each table's cap, so eviction, rotation, and exhaustion paths all
// run — and demands byte-identical packet output plus identical state and
// pressure counters. This is the NF-level half of the sharded/reference
// identity property; internal/runtime holds the full simulator to the same
// standard.
func TestShardedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pkt := func(i int) *packet.Packet {
		// Internal flows with occasional repeats; payload drawn from a small
		// chunk alphabet so Dedup sees redundancy and cache churn.
		src := packet.IPv4Addr{10, 0, byte(rng.Intn(4)), byte(rng.Intn(64))}
		sport := uint16(1000 + rng.Intn(96))
		pay := make([]byte, 64)
		for off := 0; off < 64; off += 16 {
			pay[off] = byte(rng.Intn(24)) // 24 distinct chunks vs cache cap 8
		}
		return udp(src, packet.IPv4Addr{8, 8, 8, 8}, sport, 53, pay)
	}
	cases := []struct {
		class  string
		params Params
	}{
		{"NAT", Params{"entries": 40}},
		{"Monitor", Params{"max_flows": 50}},
		{"Dedup", Params{"chunk": 16, "cache": 8}},
		{"LB", Params{"n_backends": 3, "affinity": 32}},
	}
	for _, tc := range cases {
		t.Run(tc.class, func(t *testing.T) {
			s, r := mkPair(t, tc.class, "x0", tc.params)
			e := env()
			for i := 0; i < 4000; i++ {
				p := pkt(i)
				q := &packet.Packet{}
				if err := q.Decode(append([]byte(nil), p.Data...)); err != nil {
					t.Fatal(err)
				}
				e.NowSec = float64(i) * 1e-4
				s.Process(p, e)
				r.Process(q, e)
				if p.Drop != q.Drop {
					t.Fatalf("pkt %d: drop sharded=%v reference=%v", i, p.Drop, q.Drop)
				}
				if string(p.Data) != string(q.Data) {
					t.Fatalf("pkt %d: output bytes diverged", i)
				}
			}
			switch sv := s.(type) {
			case *NAT:
				rv := r.(*natRef)
				if sv.Entries() != len(rv.out) || sv.Exhausted != rv.exhausted {
					t.Errorf("NAT state: %d/%d entries, %d/%d exhausted",
						sv.Entries(), len(rv.out), sv.Exhausted, rv.exhausted)
				}
			case *Monitor:
				rv := r.(*monitorRef)
				if sv.NumFlows() != len(rv.flows) || sv.Evicted != rv.evicted {
					t.Errorf("Monitor state: %d/%d flows, %d/%d evicted",
						sv.NumFlows(), len(rv.flows), sv.Evicted, rv.evicted)
				}
			case *Dedup:
				rv := r.(*dedupRef)
				if sv.CacheLen() != len(rv.cache) || sv.Evicted != rv.evicted {
					t.Errorf("Dedup state: cache %d/%d, evicted %d/%d",
						sv.CacheLen(), len(rv.cache), sv.Evicted, rv.evicted)
				}
			case *LB:
				rv := r.(*lbRef)
				if sv.AffinityFlows() != len(rv.affinity) || sv.Evicted != rv.evicted {
					t.Errorf("LB state: %d/%d pinned, %d/%d evicted",
						sv.AffinityFlows(), len(rv.affinity), sv.Evicted, rv.evicted)
				}
			}
			// The identity is only worth something if the stream pushed the
			// table past its cap.
			var pressure uint64
			switch sv := s.(type) {
			case *NAT:
				pressure = sv.Exhausted
			case *Monitor:
				pressure = sv.Evicted
			case *Dedup:
				pressure = sv.Evicted
			case *LB:
				pressure = sv.Evicted
			}
			if pressure == 0 {
				t.Errorf("%s never evicted or exhausted: the comparison is vacuous", tc.class)
			}
		})
	}
}

// TestMonitorUnboundedMaxFlows: a max_flows of 0 or below means no cap, in
// both backends. It used to count a phantom eviction on the first flow and
// keep one flow in the sharded table, and panic in the reference.
func TestMonitorUnboundedMaxFlows(t *testing.T) {
	for _, maxFlows := range []int{0, -1} {
		s, r := mkPair(t, "Monitor", "m0", Params{"max_flows": maxFlows})
		for i := 0; i < 500; i++ {
			src := packet.IPv4Addr{10, 0, byte(i >> 8), byte(i)}
			s.Process(udp(src, packet.IPv4Addr{8, 8, 8, 8}, 1000, 53, nil), env())
			r.Process(udp(src, packet.IPv4Addr{8, 8, 8, 8}, 1000, 53, nil), env())
		}
		sv, rv := s.(*Monitor), r.(*monitorRef)
		if sv.NumFlows() != 500 || sv.Evicted != 0 {
			t.Errorf("max_flows=%d: %d flows, %d evicted; want 500 and 0", maxFlows, sv.NumFlows(), sv.Evicted)
		}
		if len(rv.flows) != sv.NumFlows() || rv.evicted != sv.Evicted {
			t.Errorf("max_flows=%d: reference %d flows, %d evicted; sharded %d, %d",
				maxFlows, len(rv.flows), rv.evicted, sv.NumFlows(), sv.Evicted)
		}
	}
}

// TestNATPortWindowExhaustion fills the NAT's entire usable port window —
// "entries" above 45536 clamps to the [20000, 65536) range — with distinct
// flows and checks the table degrades gracefully at the brim: every port
// allocated exactly once, overflow flows dropped and counted, established
// reverse translations still intact, no panic. Before the int-arithmetic
// fix, portBase+maxEntry wrapped uint16 at this size and the allocator
// collapsed onto a single port.
func TestNATPortWindowExhaustion(t *testing.T) {
	const window = 65536 - 20000 // 45536 usable ports
	n, err := newNAT("big", Params{"entries": 100000})
	if err != nil {
		t.Fatal(err)
	}
	nat := n.(*NAT)
	if nat.maxEntry != window {
		t.Fatalf("entries clamp = %d, want %d", nat.maxEntry, window)
	}
	seen := make([]bool, 65536)
	extra := 2000
	for i := 0; i < window+extra; i++ {
		src := packet.IPv4Addr{10, byte(i >> 16), byte(i >> 8), byte(i)}
		p := udp(src, packet.IPv4Addr{8, 8, 8, 8}, uint16(i%61000+1), 53, nil)
		n.Process(p, env())
		if i < window {
			if p.Drop {
				t.Fatalf("flow %d dropped with %d ports free", i, window-i)
			}
			ext := p.UDP.SrcPort
			if ext < 20000 {
				t.Fatalf("flow %d allocated port %d below base", i, ext)
			}
			if seen[ext] {
				t.Fatalf("flow %d reused port %d", i, ext)
			}
			seen[ext] = true
		} else if !p.Drop {
			t.Fatalf("flow %d passed with the port window full", i)
		}
	}
	if nat.Entries() != window {
		t.Errorf("entries = %d, want %d", nat.Entries(), window)
	}
	if nat.Exhausted != uint64(extra) {
		t.Errorf("Exhausted = %d, want %d", nat.Exhausted, extra)
	}
	// A translation installed when the table was near-empty still reverses
	// correctly with the table at the brim.
	ret := udp(packet.IPv4Addr{8, 8, 8, 8}, packet.IPv4Addr{203, 0, 113, 1}, 53, 20000, nil)
	n.Process(ret, env())
	if ret.Drop || ret.IP.Dst[0] != 10 {
		t.Errorf("reverse translation broken at full table: dst=%v drop=%v", ret.IP.Dst, ret.Drop)
	}
}

// TestNATRefClampsIdentically pins the reference backend to the same port
// window clamp, so the exhaustion threshold cannot diverge between backends.
func TestNATRefClampsIdentically(t *testing.T) {
	WithReferenceTables(func() {
		n, err := New("NAT", "big", Params{"entries": 100000})
		if err != nil {
			t.Fatal(err)
		}
		if got := n.(*natRef).maxEntry; got != 45536 {
			t.Errorf("reference clamp = %d, want 45536", got)
		}
	})
}

// TestDedupCacheWraparound pushes a tiny cache through many generations of
// unique fingerprints: occupancy must plateau at the cap while the oldest
// fingerprints rotate out, and slot IDs must keep advancing — including
// across the uint32 wrap — without panicking or corrupting shim tokens. The
// slot ID a shim carries is derived from the fingerprint's age in the ring,
// so it is also held to the map-backed reference, which stores each ID,
// across the wrap at caches of 1, 4 and 17.
func TestDedupCacheWraparound(t *testing.T) {
	d, err := newDedup("d0", Params{"chunk": 16, "cache": 4})
	if err != nil {
		t.Fatal(err)
	}
	dd := d.(*Dedup)
	dd.nextID = ^uint32(0) - 5 // six inserts away from the uint32 wrap
	chunkPay := func(tag byte) []byte {
		pay := make([]byte, 16)
		pay[0] = tag
		return pay
	}
	for i := 0; i < 64; i++ {
		p := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8},
			1000, 53, chunkPay(byte(i)))
		d.Process(p, env())
		if dd.CacheLen() > 4 {
			t.Fatalf("cache %d exceeds cap after %d inserts", dd.CacheLen(), i+1)
		}
	}
	if dd.CacheLen() != 4 {
		t.Errorf("cache = %d, want pinned at cap 4", dd.CacheLen())
	}
	if dd.Evicted != 60 {
		t.Errorf("Evicted = %d, want 60", dd.Evicted)
	}
	if dd.nextID >= ^uint32(0)-5 {
		t.Errorf("nextID = %d, never wrapped", dd.nextID)
	}
	// A fingerprint still resident after the wrap dedups with its slot ID.
	p := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8},
		1000, 53, chunkPay(63))
	d.Process(p, env())
	pay := p.Payload()
	if pay[0] != 0xDE || pay[1] != 0xD0 {
		t.Error("resident chunk not rewritten as shim after ID wraparound")
	}
	// An evicted fingerprint is genuinely gone: it re-inserts as a miss.
	before := dd.Evicted
	q := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8},
		1000, 53, chunkPay(0))
	d.Process(q, env())
	if qp := q.Payload(); qp[0] != 0 {
		t.Error("evicted chunk dedup'd as if still cached")
	}
	if dd.Evicted != before+1 {
		t.Errorf("re-insert into full cache evicted %d, want 1", dd.Evicted-before)
	}
	for _, cache := range []int{1, 4, 17} {
		s, r := mkPair(t, "Dedup", "d0", Params{"chunk": 16, "cache": cache})
		s.(*Dedup).nextID = ^uint32(0) - 5
		r.(*dedupRef).nextID = ^uint32(0) - 5
		rng := rand.New(rand.NewSource(int64(cache)))
		var preWrap, postWrap int // shims carrying an ID from before/after the wrap
		for i := 0; i < 400; i++ {
			pay := make([]byte, 64) // four chunks over an alphabet a little past the cap
			for off := 0; off < len(pay); off += 16 {
				pay[off] = byte(rng.Intn(cache + 3))
			}
			p := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8}, 1000, 53, pay)
			q := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{8, 8, 8, 8}, 1000, 53, pay)
			s.Process(p, env())
			r.Process(q, env())
			sp, rp := p.Payload(), q.Payload()
			for off := 0; off < len(sp); off += 16 {
				if binary.BigEndian.Uint32(sp[off:]) != 0xDED0DED0 {
					continue
				}
				id, want := binary.BigEndian.Uint32(sp[off+4:]), binary.BigEndian.Uint32(rp[off+4:])
				if id != want {
					t.Fatalf("cache %d, packet %d, chunk %d: slot ID %d, reference %d", cache, i, off/16, id, want)
				}
				if id >= ^uint32(0)-5 {
					preWrap++
				} else {
					postWrap++
				}
			}
			if string(sp) != string(rp) {
				t.Fatalf("cache %d, packet %d: payload diverged from the reference", cache, i)
			}
		}
		if preWrap == 0 || postWrap == 0 {
			t.Errorf("cache %d: %d shims before the wrap, %d after: want both", cache, preWrap, postWrap)
		}
	}
}
