package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEach pins the cell runner's contract: at most `workers` cells in
// flight, every index visited exactly once, inline on the caller's goroutine
// at one worker, and errors reduced by index like results — the lowest
// failing index is reported no matter which cell failed first, and the cells
// after a failure still run.
func TestForEach(t *testing.T) {
	t.Run("bounded, each index once", func(t *testing.T) {
		const n, workers = 200, 3
		var inFlight, peak atomic.Int32
		visits := make([]atomic.Int32, n)
		err := forEach(n, workers, func(i int) error {
			cur := inFlight.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			visits[i].Add(1)
			inFlight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p < 1 || p > workers {
			t.Errorf("peak cells in flight = %d, want 1..%d", p, workers)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Errorf("index %d visited %d times", i, v)
			}
		}
	})

	t.Run("inline at one worker", func(t *testing.T) {
		var order []int
		if err := forEach(5, 1, func(i int) error { order = append(order, i); return nil }); err != nil {
			t.Fatal(err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("serial order = %v, want 0..4", order)
			}
		}
		// A panic in an inline cell unwinds through the caller; on a worker
		// goroutine it would take the process down instead.
		defer func() {
			if recover() == nil {
				t.Error("cell did not run on the caller's goroutine")
			}
		}()
		_ = forEach(2, 1, func(int) error { panic("inline") })
	})

	t.Run("lowest-index error wins, later cells still run", func(t *testing.T) {
		const n = 16
		errLow, errHigh := errors.New("cell 3"), errors.New("cell 9")
		highFailed := make(chan struct{})
		var visited atomic.Int32
		err := forEach(n, 4, func(i int) error {
			visited.Add(1)
			switch i {
			case 3:
				<-highFailed // cell 9 fails first, by construction
				return errLow
			case 9:
				defer close(highFailed)
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Errorf("err = %v, want the lowest failing index (%v)", err, errLow)
		}
		if v := visited.Load(); v != n {
			t.Errorf("%d of %d cells ran", v, n)
		}
	})

	t.Run("no cells", func(t *testing.T) {
		if err := forEach(0, 4, func(int) error { return errors.New("ran") }); err != nil {
			t.Fatal(err)
		}
	})
}
