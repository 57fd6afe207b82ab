package daemon

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for the reconcile loop so the daemon is
// property-testable: production wires realClock, tests wire a FakeClock and
// advance it explicitly, making every backoff deadline and chaos-plan fire
// time deterministic.
type Clock interface {
	// Now returns the clock's current time.
	Now() time.Time
	// After returns a channel that delivers the clock's time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock backed by the wall clock.
type realClock struct{}

// Now returns time.Now.
func (realClock) Now() time.Time { return time.Now() }

// After returns time.After(d).
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a manually advanced Clock. Time moves only through Advance,
// which fires pending After timers in deadline order — two daemons driven by
// the same FakeClock schedule see the identical sequence of instants, which
// is what makes the reconcile loop's convergence latency a deterministic,
// benchmarkable quantity (experiments.reconcileSweep relies on it).
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a FakeClock frozen at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake clock's current instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After registers a timer that fires when Advance moves the clock past d
// from now. The channel has capacity 1, so firing never blocks Advance.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	return t.ch
}

// Advance moves the clock forward by d, firing every pending timer whose
// deadline falls inside the window, in deadline order (ties fire in
// registration order). It never blocks.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*fakeTimer
	var rest []*fakeTimer
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			due = append(due, t)
		} else {
			rest = append(rest, t)
		}
	}
	c.timers = rest
	sort.SliceStable(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	now := c.now
	c.mu.Unlock()
	for _, t := range due {
		t.ch <- now
	}
}
