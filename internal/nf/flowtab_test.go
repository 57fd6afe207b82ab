package nf

import (
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// badHash maps keys onto 4 shards and 8 slot residues so probe chains get
// deep and deletions exercise the backward-shift path. It is a valid (if
// terrible) hash: deterministic per key.
func badHash(k uint64) uint64 {
	return (k%4)<<flowShardShift | (k % 8)
}

// TestTabShardAgainstMapOracle drives one shard with a random insert/get/del
// workload under a collision-heavy hash and checks every lookup against a
// plain map. This is the open-addressing core: growth, probe chains, and
// backward-shift deletion (no tombstones) all trigger at this size.
func TestTabShardAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s tabShard[uint64, uint64]
	oracle := map[uint64]uint64{}
	keys := []uint64{}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert a fresh key
			k := uint64(rng.Intn(4096))
			if _, dup := oracle[k]; dup {
				continue
			}
			v := rng.Uint64()
			*s.insert(badHash(k), k) = v
			oracle[k] = v
			keys = append(keys, k)
		case r < 8 && len(keys) > 0: // delete a live key
			i := rng.Intn(len(keys))
			k := keys[i]
			if !s.del(badHash(k), k) {
				t.Fatalf("op %d: del(%d) missed a live key", op, k)
			}
			delete(oracle, k)
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		default: // probe a key that may or may not exist
			k := uint64(rng.Intn(4096))
			got := s.get(badHash(k), k)
			want, live := oracle[k]
			if live != (got != nil) {
				t.Fatalf("op %d: get(%d) present=%v, oracle=%v", op, k, got != nil, live)
			}
			if live && *got != want {
				t.Fatalf("op %d: get(%d) = %d, want %d", op, k, *got, want)
			}
		}
	}
	if s.n != len(oracle) {
		t.Fatalf("shard count %d != oracle %d", s.n, len(oracle))
	}
	for k, want := range oracle {
		got := s.get(badHash(k), k)
		if got == nil || *got != want {
			t.Fatalf("final sweep: key %d wrong", k)
		}
	}
	if s.del(badHash(99999), 99999) {
		t.Error("del of absent key reported success")
	}
}

// TestFlowTableFIFOEviction checks the capped table's eviction order is
// exactly insertion order, interleaved with inserts, across ring growth and
// wraparound.
func TestFlowTableFIFOEviction(t *testing.T) {
	tab := newFlowTable[uint64, int](0, true)
	next := uint64(0)
	expect := []uint64{}
	push := func() {
		*tab.insert(mix64(next), next) = int(next)
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
		if tab.get(mix64(k), k) != nil {
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
	tab := newFlowTable[uint64, int](3, false)
	for i := uint64(0); i < 3; i++ {
		if tab.full() {
			t.Fatalf("full at %d/3", i)
		}
		tab.insert(mix64(i), i)
	}
	if !tab.full() {
		t.Error("not full at cap")
	}
	unbounded := newFlowTable[uint64, int](0, false)
	for i := uint64(0); i < 100; i++ {
		unbounded.insert(mix64(i), i)
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
				if sv.CacheLen() != len(rv.cache) || sv.Evicted != rv.evicted ||
					sv.InBytes != rv.inBytes || sv.OutBytes != rv.outBytes {
					t.Errorf("Dedup state: cache %d/%d, evicted %d/%d, bytes %d+%d/%d+%d",
						sv.CacheLen(), len(rv.cache), sv.Evicted, rv.evicted,
						sv.InBytes, sv.OutBytes, rv.inBytes, rv.outBytes)
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

// TestNATPortWindowExhaustion fills the NAT's entire usable port window —
// "entries" above 45536 clamps to the [20000, 65536) range — with distinct
// flows and checks the table degrades gracefully at the brim: every port
// allocated exactly once, overflow flows dropped and counted, established
// reverse translations still intact, no panic. Before the int-arithmetic
// fix, portBase+maxEntry wrapped uint16 at this size and the allocator
// collapsed onto a single port.
func TestNATPortWindowExhaustion(t *testing.T) {
	const window = 65536 - 20000 // 45536 usable ports
	n, err := NewNAT("big", Params{"entries": 100000})
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
// across the uint32 wrap — without panicking or corrupting shim tokens.
func TestDedupCacheWraparound(t *testing.T) {
	d, err := NewDedup("d0", Params{"chunk": 16, "cache": 4})
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
}
