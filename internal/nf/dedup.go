package nf

import (
	"encoding/binary"
	"fmt"

	"lemur/internal/packet"
)

// Dedup implements EndRE-style network redundancy elimination: payloads are
// chunked, chunk fingerprints are cached, and chunks seen before are replaced
// in place by 8-byte shim tokens referencing the cache. The packet's egress
// byte count is therefore smaller than its ingress count for redundant
// traffic — the data-dependent behaviour §5.2 calls out.
//
// The fingerprint cache is a sharded flowTable of bare fingerprints, hashed
// by mix64. A full cache evicts its oldest fingerprint FIFO-style, so at
// high flow counts the cache keeps rotating (slot IDs wrap around the uint32
// space) instead of freezing on whatever fingerprints arrived first — the
// graceful-degradation behaviour the million-flow sweep measures. Slot IDs
// are handed out in insertion order and the table's ring holds its entries
// in insertion order, so a cached fingerprint's ID is not stored: it is
// nextID − count + its age in the ring.
//
// The simulated frame keeps its allocation and its length: a shim and the
// zeroed rest of its chunk stand for the bytes a real deployment removes.
type Dedup struct {
	base
	chunk   int
	cache   *flowTable[uint64, struct{}] // fingerprints, oldest first
	nextID  uint32                       // the next fingerprint's slot ID
	maxSize int
	so      stateObs

	// Evicted counts fingerprints rotated out of a full cache.
	Evicted uint64
}

const dedupShim = 8 // bytes emitted per deduplicated chunk

// parseDedupChunk resolves the chunk size both implementations share. A
// chunk shorter than the shim that replaces it has no room for the token: at
// 0 the chunk loop never advances, and below 0 it slices backwards.
func parseDedupChunk(name string, params Params) (int, error) {
	chunk := params.int("chunk", 64)
	if chunk < dedupShim {
		return 0, fmt.Errorf("nf: Dedup %s: chunk %d is shorter than its %d-byte shim", name, chunk, dedupShim)
	}
	return chunk, nil
}

// newDedup builds the redundancy eliminator. Params: "chunk" (bytes, at
// least 8, default 64) and "cache" (max fingerprints, default 65536).
func newDedup(name string, params Params) (NF, error) {
	chunk, err := parseDedupChunk(name, params)
	if err != nil {
		return nil, err
	}
	maxSize := params.int("cache", 65536)
	return &Dedup{
		base:    base{name: name, class: "Dedup"},
		chunk:   chunk,
		cache:   newFlowTable[uint64, struct{}](maxSize, true, mix64),
		maxSize: maxSize,
		so:      newStateObs("Dedup", name),
	}, nil
}

// Process fingerprints payload chunks and rewrites redundant ones as shims.
func (d *Dedup) Process(p *packet.Packet, _ *Env) {
	pay := p.Payload()
	for off := 0; off+d.chunk <= len(pay); off += d.chunk {
		fp := fingerprint(pay[off : off+d.chunk])
		if pos := d.cache.lookup(fp); pos != flowSlotEmpty {
			// Redundant chunk: emit an 8-byte shim in place. The remaining
			// chunk bytes are zeroed to mirror removal.
			slot := d.nextID - uint32(d.cache.count()) + uint32(d.cache.age(pos))
			binary.BigEndian.PutUint32(pay[off:], 0xDED0DED0)
			binary.BigEndian.PutUint32(pay[off+4:], slot)
			clear(pay[off+dedupShim : off+d.chunk])
			continue
		}
		if d.maxSize > 0 {
			if d.cache.count() >= d.maxSize {
				d.cache.evictOldest()
				d.Evicted++
				d.so.evicted.Inc()
			}
			d.cache.insert(fp)
			d.nextID++
		}
	}
}

// CacheLen returns the number of cached fingerprints.
func (d *Dedup) CacheLen() int { return d.cache.count() }

// fingerprint is a 64-bit FNV-1a over the chunk.
func fingerprint(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
