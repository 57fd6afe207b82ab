package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimple2D(t *testing.T) {
	// max 3x+2y s.t. x+y<=4, x+3y<=6 -> x=4,y=0, value 12
	sol, err := Solve(Problem{
		C: []float64{3, 2},
		A: [][]float64{{1, 1}, {1, 3}},
		B: []float64{4, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Value, 12) || !approx(sol.X[0], 4) || !approx(sol.X[1], 0) {
		t.Errorf("sol = %+v, want x=(4,0) v=12", sol)
	}
}

func TestInteriorOptimum(t *testing.T) {
	// max x+y s.t. 2x+y<=10, x+3y<=15 -> intersection x=3,y=4, value 7
	sol, err := Solve(Problem{
		C: []float64{1, 1},
		A: [][]float64{{2, 1}, {1, 3}},
		B: []float64{10, 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Value, 7) || !approx(sol.X[0], 3) || !approx(sol.X[1], 4) {
		t.Errorf("sol = %+v, want (3,4) v=7", sol)
	}
}

func TestUnbounded(t *testing.T) {
	_, err := Solve(Problem{C: []float64{1}, A: [][]float64{{-1}}, B: []float64{1}})
	if !errors.Is(err, errUnbounded) {
		t.Errorf("err = %v, want errUnbounded", err)
	}
	// No constraints, positive objective.
	_, err = Solve(Problem{C: []float64{1}})
	if !errors.Is(err, errUnbounded) {
		t.Errorf("err = %v, want errUnbounded", err)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and -x <= -3 (x >= 3): infeasible.
	_, err := Solve(Problem{
		C: []float64{1},
		A: [][]float64{{1}, {-1}},
		B: []float64{1, -3},
	})
	if !errors.Is(err, errInfeasible) {
		t.Errorf("err = %v, want errInfeasible", err)
	}
}

func TestNegativeRHSFeasible(t *testing.T) {
	// -x <= -2 (x>=2), x <= 5, max -x -> x=2, value -2.
	sol, err := Solve(Problem{
		C: []float64{-1},
		A: [][]float64{{-1}, {1}},
		B: []float64{-2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 2) || !approx(sol.Value, -2) {
		t.Errorf("sol = %+v, want x=2", sol)
	}
}

func TestEqualityViaPair(t *testing.T) {
	// x+y = 3 expressed as <= and >=; max x s.t. x<=2.
	sol, err := Solve(Problem{
		C: []float64{1, 0},
		A: [][]float64{{1, 1}, {-1, -1}, {1, 0}},
		B: []float64{3, -3, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 2) || !approx(sol.X[1], 1) {
		t.Errorf("sol = %+v, want (2,1)", sol)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// Classic degenerate problem; Bland's rule must terminate.
	sol, err := Solve(Problem{
		C: []float64{10, -57, -9, -24},
		A: [][]float64{
			{0.5, -5.5, -2.5, 9},
			{0.5, -1.5, -0.5, 1},
			{1, 0, 0, 0},
		},
		B: []float64{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Value, 1) {
		t.Errorf("value = %v, want 1", sol.Value)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}).validate(); err == nil {
		t.Error("want dimension error")
	}
	if err := (&Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}}).validate(); err == nil {
		t.Error("want row-count error")
	}
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}); err == nil {
		t.Error("Solve must reject invalid problems")
	}
}

// TestMarginalThroughputShape mirrors the Placer's LP: maximize sum of
// marginals x_i with per-chain caps and a shared link.
func TestMarginalThroughputShape(t *testing.T) {
	// Two chains: x0 <= 10, x1 <= 20, and x0 + 2*x1 <= 24 (chain 1 crosses
	// the link twice). Optimum: x0=10, x1=7.
	sol, err := Solve(Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 0}, {0, 1}, {1, 2}},
		B: []float64{10, 20, 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 10) || !approx(sol.X[1], 7) {
		t.Errorf("sol = %+v, want (10,7)", sol)
	}
}

// TestRandomLPsFeasibleBoundedProperty: for random problems with
// non-negative A and b, origin is feasible and the optimum is >= 0 and
// respects all constraints.
func TestRandomLPsFeasibleBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		n, m := 1+rng.Intn(5), 1+rng.Intn(6)
		p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
		for j := range p.C {
			p.C[j] = rng.Float64()*4 - 1
		}
		for i := range p.A {
			p.A[i] = make([]float64, n)
			for j := range p.A[i] {
				p.A[i][j] = rng.Float64() // >= 0
			}
			p.B[i] = rng.Float64() * 10
		}
		// Add x_j <= 100 rows so positives can't be unbounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.A = append(p.A, row)
			p.B = append(p.B, 100)
		}
		sol, err := Solve(p)
		if err != nil {
			return false
		}
		if sol.Value < -1e-9 {
			return false // origin gives 0
		}
		for i, row := range p.A {
			lhs := 0.0
			for j := range row {
				lhs += row[j] * sol.X[j]
			}
			if lhs > p.B[i]+1e-6 {
				return false
			}
		}
		for _, x := range sol.X {
			if x < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolve20x30(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n, m := 20, 30
	p := Problem{C: make([]float64, n), A: make([][]float64, m), B: make([]float64, m)}
	for j := range p.C {
		p.C[j] = rng.Float64()
	}
	for i := range p.A {
		p.A[i] = make([]float64, n)
		for j := range p.A[i] {
			p.A[i][j] = rng.Float64()
		}
		p.B[i] = 5 + rng.Float64()*10
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
