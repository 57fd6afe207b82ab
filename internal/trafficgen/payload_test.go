package trafficgen

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// fillRandomByteLoop is the word-at-a-time splitmix64 loop fillRandom
// replaced: the unrolled kernel must write the bytes it wrote.
func fillRandomByteLoop(p []byte, seed uint64) {
	s := seed
	i := 0
	for ; i+8 <= len(p); i += 8 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(p[i:], z)
	}
	if i < len(p) {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for ; i < len(p); i++ {
			p[i] = byte(z)
			z >>= 8
		}
	}
}

// TestFillRandomMatchesByteLoop: the unrolled kernel writes what the
// word loop wrote, at every length 0..130 (every remainder mod 32 and 8,
// below and above a 64-B chunk) and random seeds, and nothing past p.
func TestFillRandomMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 130; n++ {
		for k := 0; k < 20; k++ {
			seed := rng.Uint64()
			want := make([]byte, n+1)
			got := make([]byte, n+1)
			want[n], got[n] = 0xa5, 0xa5 // a guard byte past p
			fillRandomByteLoop(want[:n], seed)
			fillRandom(got[:n], seed)
			if !bytes.Equal(got, want) {
				t.Fatalf("len %d seed %#x:\n got  %x\n want %x", n, seed, got, want)
			}
		}
	}
}

// payloadConfigs are configs whose payload draws vary per chunk: HTTP
// heads of varying length shift the chunk grid, and redundant chunks
// replace the Uint64 draw by a Float64 one.
func payloadConfigs() []Config {
	return append(nextIntoConfigs(),
		Config{Mode: ShortLived, Seed: 21, NewFlowsSec: 500, Redundancy: 0.9, HTTPShare: 0.5},
		Config{Mode: LongLived, Seed: 22, FrameBytes: 100, HTTPShare: 1}, // head longer than the payload
		Config{Mode: LongLived, Seed: 23, FrameBytes: 70})                // no payload at all
}

// payLenOf is the payload length emitInto gives cfg's frames.
func payLenOf(frame []byte) int {
	var p packet.Packet
	if err := p.Decode(frame); err != nil {
		panic(err)
	}
	return len(frame) - p.PayloadOff
}

// garbage returns a buffer of n random bytes with the tail room a frame
// buffer has.
func garbage(rng *rand.Rand, n int) []byte {
	b := make([]byte, n, n+packet.TailRoom)
	rng.Read(b)
	return b
}

// TestHeadersIntoMatchesNextInto: a headers-only frame has NextInto's
// length and every header byte, for both packet sources, into fresh and
// into garbage-filled buffers.
func TestHeadersIntoMatchesNextInto(t *testing.T) {
	fill := rand.New(rand.NewSource(7))
	for ci, cfg := range payloadConfigs() {
		for _, src := range sources(t, cfg) {
			for i := 0; i < 300; i++ {
				now := float64(i) * 1e-4
				want := src.ref.NextInto(nil, now)
				buf := garbage(fill, 1600)
				if i%2 == 0 {
					buf = nil
				}
				got := src.fast.HeadersInto(buf, now)
				hdr := len(want) - payLenOf(want)
				if len(got) != len(want) || !bytes.Equal(got[:hdr], want[:hdr]) {
					t.Fatalf("config %d %s: frame %d: headers-only frame (%d B) differs from NextInto's (%d B) in its %d header bytes",
						ci, src.name, i, len(got), len(want), hdr)
				}
			}
		}
	}
}

// TestHeadersIntoKeepsDrawOrder: after any interleaving of NextInto and
// HeadersInto, the next NextInto frame is the one a NextInto-only stream
// emits, so a payload-blind chain leaves every later frame as it was.
func TestHeadersIntoKeepsDrawOrder(t *testing.T) {
	pick := rand.New(rand.NewSource(3))
	for ci, cfg := range payloadConfigs() {
		for _, src := range sources(t, cfg) {
			for i := 0; i < 600; i++ {
				now := float64(i) * 1e-4
				want := src.ref.NextInto(nil, now)
				if pick.Intn(3) > 0 {
					src.fast.HeadersInto(nil, now)
					continue
				}
				if got := src.fast.NextInto(nil, now); !bytes.Equal(got, want) {
					t.Fatalf("config %d %s: frame %d after an interleaving differs from the NextInto-only stream", ci, src.name, i)
				}
			}
		}
	}
}

// TestNextIntoOverwritesGarbage: a payload-writing emission into a buffer
// full of an earlier frame's (or random) bytes equals one into a fresh
// buffer, so a headers-only frame never leaks into a payload reader's.
func TestNextIntoOverwritesGarbage(t *testing.T) {
	fill := rand.New(rand.NewSource(9))
	for ci, cfg := range payloadConfigs() {
		for _, src := range sources(t, cfg) {
			for i := 0; i < 300; i++ {
				now := float64(i) * 1e-4
				want := src.ref.NextInto(nil, now)
				if got := src.fast.NextInto(garbage(fill, 1600), now); !bytes.Equal(got, want) {
					t.Fatalf("config %d %s: frame %d into a garbage buffer differs from a fresh one", ci, src.name, i)
				}
			}
		}
	}
}

// emitter is what both packet sources offer.
type emitter interface {
	NextInto(buf []byte, nowSec float64) []byte
	HeadersInto(buf []byte, nowSec float64) []byte
}

// sourcePair is two identically seeded sources of one kind: ref emits
// NextInto-only, fast is the one under test.
type sourcePair struct {
	name      string
	ref, fast emitter
}

// sources returns a Generator pair and a ScheduleGen pair for cfg.
func sources(t *testing.T, cfg Config) []sourcePair {
	t.Helper()
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := New(cfg)
	sched, err := ScheduleInto(nil, cfg, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduled(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewScheduled(cfg, sched)
	return []sourcePair{{"generator", g1, g2}, {"schedule", s1, s2}}
}

func BenchmarkFillRandom(b *testing.B) {
	p := make([]byte, 1476)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(p); off += 64 {
			fillRandom(p[off:min(off+64, len(p))], uint64(i+off))
		}
	}
}
