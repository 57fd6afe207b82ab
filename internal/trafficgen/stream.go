package trafficgen

import "math/rand"

// stream is math/rand's default source and the Rand methods the generator
// calls, owned here so that a value needs no allocation and a run of draws
// whose outputs nobody reads costs one add each (skip). For any seed its
// outputs are exactly those of rand.New(rand.NewSource(seed)) method for
// method (TestStreamMatchesMathRand).
//
// The source is an additive lagged Fibonacci generator,
// x[n] = x[n-607] + x[n-273] mod 2⁶⁴, over a ring of 607 cells: each draw
// steps tap and feed down by one, adds the tap cell into the feed cell and
// returns the sum.
type stream struct {
	tap, feed int
	vec       [streamLen]int64
}

const (
	streamLen = 607
	streamTap = 273
	int32max  = 1<<31 - 1
)

// cooked is the table math/rand XORs into every seeded register, derived
// once from the standard library's own stream (see deriveCooked).
var cooked = deriveCooked()

// seedrand is math/rand's seeding step, x·48271 mod 2³¹−1 by Schrage's
// method.
func seedrand(x int32) int32 {
	const a, q, r = 48271, 44488, 3399
	x = a*(x%q) - r*(x/q)
	if x < 0 {
		x += int32max
	}
	return x
}

// seedMix fills vec with the part of math/rand's seeded register that
// depends on seed alone; the register is that XOR cooked.
func seedMix(vec *[streamLen]int64, seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < streamLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			vec[i] = u ^ int64(x)
		}
	}
}

// deriveCooked recovers math/rand's cooked table from the first 607 draws
// of rand.NewSource(1). Draw k (1-based) writes cell 334−k mod 607, adding
// to that cell's seeded value the tap cell 607−k mod 607, which draw k−273
// wrote when k > 273 and still holds its seeded value otherwise (draw k+334
// writes it later). So the seeded register is each draw minus its tap, taken
// for k > 273 first; XOR-ing out seed 1's mix leaves the table.
func deriveCooked() *[streamLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out [streamLen + 1]int64 // out[k] is draw k
	for k := 1; k <= streamLen; k++ {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (2*streamLen - streamTap - k) % streamLen }
	var c [streamLen]int64
	for k := streamTap + 1; k <= streamLen; k++ {
		c[feed(k)] = out[k] - out[k-streamTap]
	}
	for k := 1; k <= streamTap; k++ {
		c[feed(k)] = out[k] - c[streamLen-k]
	}
	var mix [streamLen]int64
	seedMix(&mix, 1)
	for i := range c {
		c[i] ^= mix[i]
	}
	return &c
}

// seed puts s in the state rand.NewSource(seed) starts in.
func (s *stream) seed(seed int64) {
	s.tap, s.feed = 0, streamLen-streamTap
	seedMix(&s.vec, seed)
	for i := range s.vec {
		s.vec[i] ^= cooked[i]
	}
}

// uint64 is rand.Rand.Uint64: one step of the register.
func (s *stream) uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += streamLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += streamLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// skip advances s by n draws, as n calls of uint64 would, without
// producing them. Draw k reads what draw k−273 wrote, so within a run of
// at most 273 draws no add waits on another; the loop runs between the
// points where tap or feed wraps.
func (s *stream) skip(n int) {
	for n > 0 {
		if s.tap == 0 {
			s.tap = streamLen
		}
		if s.feed == 0 {
			s.feed = streamLen
		}
		m := min(n, streamTap, s.tap, s.feed)
		f := s.vec[s.feed-m : s.feed]
		t := s.vec[s.tap-m : s.tap]
		for i := m - 1; i >= 0; i-- {
			f[i] += t[i]
		}
		s.tap -= m
		s.feed -= m
		n -= m
	}
}

// int63 is rand.Rand.Int63.
func (s *stream) int63() int64 { return int64(s.uint64() &^ (1 << 63)) }

// uint32 is rand.Rand.Uint32.
func (s *stream) uint32() uint32 { return uint32(s.int63() >> 31) }

// intn is rand.Rand.Intn: a power of two masks one draw, any other n
// rejects draws past the largest multiple of n.
func (s *stream) intn(n int) int {
	if n <= 0 {
		panic("trafficgen: invalid argument to intn")
	}
	if n <= int32max {
		return int(s.int31n(int32(n)))
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(s.int63() & (n64 - 1))
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n64))
	v := s.int63()
	for v > limit {
		v = s.int63()
	}
	return int(v % n64)
}

// int31n is rand.Rand.Int31n.
func (s *stream) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.int63()>>32) & (n - 1)
	}
	limit := int32(int32max - (1<<31)%uint32(n))
	v := int32(s.int63() >> 32)
	for v > limit {
		v = int32(s.int63() >> 32)
	}
	return v % n
}

// float64 is rand.Rand.Float64, which draws again on the one value that
// rounds to 1.
func (s *stream) float64() float64 {
	for {
		if f := float64(s.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// read is the first rand.Rand.Read after seeding: seven bytes of each
// int63, low byte first.
func (s *stream) read(p []byte) {
	var v int64
	for i := range p {
		if i%7 == 0 {
			v = s.int63()
		}
		p[i] = byte(v)
		v >>= 8
	}
}
