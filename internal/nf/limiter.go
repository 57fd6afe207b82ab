package nf

import "lemur/internal/packet"

// limiter is a token-bucket rate limiter (bits granularity). It is one of
// the paper's two non-replicable NFs: the bucket is shared mutable state
// that cannot be split across cores without breaking the rate contract, so
// the Placer never replicates a subgroup containing it.
type limiter struct {
	base
	rateBps   float64 // token refill rate
	burstBits float64 // bucket depth
	tokens    float64
	lastSec   float64
	primed    bool
}

// newLimiter builds the token bucket. Params: "rate_mbps" (default 10000)
// and "burst_kbits" (default 1500).
func newLimiter(name string, params Params) (NF, error) {
	rate := params.float("rate_mbps", 10000) * 1e6
	burst := params.float("burst_kbits", 1500) * 1e3
	return &limiter{
		base:      base{name: name, class: "Limiter"},
		rateBps:   rate,
		burstBits: burst,
		tokens:    burst,
	}, nil
}

// Process consumes frame-size tokens; if the bucket is empty the packet is
// dropped.
func (l *limiter) Process(p *packet.Packet, env *Env) {
	now := 0.0
	if env != nil {
		now = env.NowSec
	}
	if !l.primed {
		l.lastSec = now
		l.primed = true
	}
	if dt := now - l.lastSec; dt > 0 {
		l.tokens += dt * l.rateBps
		if l.tokens > l.burstBits {
			l.tokens = l.burstBits
		}
		l.lastSec = now
	}
	need := float64(len(p.Data) * 8)
	if l.tokens < need {
		p.Drop = true
		return
	}
	l.tokens -= need
}
