package runtime

import "fmt"

// quantileSelect returns the k-th smallest element of s (0-based), the exact
// value sort.Float64s(s); s[k] would produce, in expected O(n) instead of
// O(n log n). It partially reorders s in place. The pivot choice is a
// deterministic median-of-three, so the simulator's output never depends on
// an rng draw the reference engine does not make.
func quantileSelect(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot, moved to s[lo].
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		s[lo], s[mid] = s[mid], s[lo]
		pivot := s[lo]

		// Hoare partition.
		i, j := lo, hi+1
		for {
			for {
				i++
				if i > hi || s[i] >= pivot {
					break
				}
			}
			for {
				j--
				if s[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		s[lo], s[j] = s[j], s[lo]

		switch {
		case j == k:
			return s[k]
		case j > k:
			hi = j - 1
		default:
			lo = j + 1
		}
	}
	return s[k]
}

// delayTail is one chain's record of the queue waits of its egressed
// packets: how many egressed, how many of those met the chain's effective
// deadline, and a min-heap of the largest waits. The heap holds
// ⌈bound/100⌉+1 waits, where bound is the most packets the chain can
// inject in the run: a chain that egresses n ≤ bound packets has its p99,
// the ⌈n/100⌉-th largest wait, among them. Its memory is that of the tail,
// not of the run.
type delayTail struct {
	n, met   int
	deadline float64 // effective deadline in seconds; 0 = none
	bound    int
	top      []float64 // min-heap of the largest waits seen, cap fixed
}

func newDelayTail(bound int, deadline float64) delayTail {
	return delayTail{deadline: deadline, bound: bound, top: make([]float64, 0, (bound+99)/100+1)}
}

// add records one egressed packet's wait. The heap is written by hand:
// container/heap would box every float it pushes.
func (t *delayTail) add(w float64) {
	t.n++
	if w <= t.deadline {
		t.met++
	}
	h := t.top
	if len(h) < cap(h) {
		h = append(h, w)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !(h[i] < h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		t.top = h
		return
	}
	if !(w > h[0]) {
		return
	}
	h[0] = w
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if !(h[m] < h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// p99 returns the wait sort.Float64s(waits)[(n*99)/100] picks — the
// ⌈n/100⌉-th largest — selected in place on the heap, which it leaves
// unordered: call it once, when the run is over, with n > 0. A chain that
// egressed more than its bound has lost waits the p99 may need, so that is
// an error rather than a wrong answer.
func (t *delayTail) p99() (float64, error) {
	if t.n > t.bound {
		return 0, fmt.Errorf("%d packets egressed past an injection bound of %d", t.n, t.bound)
	}
	return quantileSelect(t.top, len(t.top)-(t.n+99)/100), nil
}
