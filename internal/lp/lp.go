// Package lp implements a dense two-phase simplex solver for linear programs
// in the form
//
//	maximize  c·x   subject to  A·x <= b,  x >= 0
//
// The Placer uses it to maximize aggregate marginal throughput under
// link-capacity constraints (§3.2).
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Solver failure modes.
var (
	errInfeasible = errors.New("lp: infeasible")
	errUnbounded  = errors.New("lp: unbounded")
	errIterations = errors.New("lp: iteration limit exceeded")
)

// Problem is an LP in canonical inequality form.
type Problem struct {
	C []float64   // objective coefficients, length n
	A [][]float64 // m x n constraint matrix
	B []float64   // right-hand sides, length m
}

// Solution is an optimal point. Iterations counts simplex pivots across both
// phases — a cheap proxy for how hard the instance was.
type Solution struct {
	X          []float64
	Value      float64
	Iterations int
}

const (
	eps     = 1e-9
	maxIter = 20000
)

// validate checks dimensions.
func (p *Problem) validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) {
		return fmt.Errorf("lp: %d constraint rows but %d RHS entries", len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	return nil
}

// tableau holds the simplex working state: rows = constraints, cols =
// structural + slack + artificial variables, plus RHS column.
type tableau struct {
	a      [][]float64 // m x (ncols+1), last column is RHS
	basis  []int       // basic variable per row
	z      []float64   // reduced-cost row buffer, length ncols+1
	ncols  int
	pivots int
}

// scratch is the pooled simplex working set: one flat float64 arena backing
// every tableau row, plus the row headers and the basis / objective /
// reduced-cost / banned-column buffers. The Placer solves thousands of small
// LPs per placement, so these transient allocations dominate its profile;
// pooling them makes repeat solves allocation-free apart from Solution.X
// (which escapes to the caller and stays fresh).
type scratch struct {
	flat   []float64
	rows   [][]float64
	basis  []int
	artOf  []int
	obj    []float64
	z      []float64
	banned []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grownFloats resizes b to length n, zeroed.
func grownFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// grownBools resizes b to length n, zeroed.
func grownBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// grownInts resizes b to length n without zeroing (callers fully write it).
func grownInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// Solve finds an optimal solution via two-phase simplex with Bland's rule.
func Solve(p Problem) (Solution, error) { return SolveInto(p, nil) }

// SolveInto is Solve with the caller's buffer for Solution.X: x is reused
// when its capacity holds len(p.C) values, so a caller that solves many LPs
// of one shape and reads each solution before the next solve allocates
// nothing per solve.
func SolveInto(p Problem, x []float64) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	n, m := len(p.C), len(p.B)
	if m == 0 {
		// No constraints: bounded only if c <= 0.
		for _, c := range p.C {
			if c > eps {
				return Solution{}, errUnbounded
			}
		}
		return Solution{X: grownFloats(x, n)}, nil
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Columns: n structural, m slacks, up to m artificials.
	var artRows []int
	for i := range p.B {
		if p.B[i] < -eps {
			artRows = append(artRows, i)
		}
	}
	nart := len(artRows)
	ncols := n + m + nart
	t := &tableau{ncols: ncols}
	sc.basis = grownInts(sc.basis, m)
	t.basis = sc.basis
	sc.z = grownFloats(sc.z, ncols+1)
	t.z = sc.z
	sc.flat = grownFloats(sc.flat, m*(ncols+1))
	if cap(sc.rows) < m {
		sc.rows = make([][]float64, m)
	}
	sc.rows = sc.rows[:m]
	for i := 0; i < m; i++ {
		sc.rows[i] = sc.flat[i*(ncols+1) : (i+1)*(ncols+1)]
	}
	t.a = sc.rows
	artCol := n + m
	sc.artOf = grownInts(sc.artOf, m) // row -> artificial column
	artOf := sc.artOf
	for _, r := range artRows {
		artOf[r] = artCol
		artCol++
	}
	for i := 0; i < m; i++ {
		row := t.a[i]
		neg := p.B[i] < -eps
		sign := 1.0
		if neg {
			sign = -1
		}
		for j := 0; j < n; j++ {
			row[j] = sign * p.A[i][j]
		}
		row[n+i] = sign // slack
		row[ncols] = sign * p.B[i]
		if neg {
			ac := artOf[i]
			row[ac] = 1
			t.basis[i] = ac
		} else {
			t.basis[i] = n + i
		}
	}

	if nart > 0 {
		// Phase 1: maximize -(sum of artificials).
		sc.obj = grownFloats(sc.obj, ncols)
		obj := sc.obj
		for _, r := range artRows {
			obj[artOf[r]] = -1
		}
		v, err := t.optimize(obj, nil)
		if err != nil {
			return Solution{}, err
		}
		if v < -eps {
			return Solution{}, errInfeasible
		}
		// Drive any artificial still basic (at zero) out of the basis.
		sc.banned = grownBools(sc.banned, ncols)
		banned := sc.banned
		for _, r := range artRows {
			banned[artOf[r]] = true
		}
		for i, b := range t.basis {
			if !banned[b] {
				continue
			}
			pivoted := false
			for j := 0; j < n+m; j++ {
				if math.Abs(t.a[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; the artificial stays basic at zero, which
				// is harmless as long as it never re-enters (banned below).
				_ = i
			}
		}
		// Phase 2 with artificials banned from entering.
		sc.obj = grownFloats(sc.obj, ncols)
		copy(sc.obj, p.C)
		if _, err := t.optimize(sc.obj, banned); err != nil {
			return Solution{}, err
		}
	} else {
		sc.obj = grownFloats(sc.obj, ncols)
		copy(sc.obj, p.C)
		if _, err := t.optimize(sc.obj, nil); err != nil {
			return Solution{}, err
		}
	}

	sol := Solution{X: grownFloats(x, n), Iterations: t.pivots}
	for i, b := range t.basis {
		if b < n {
			sol.X[b] = t.a[i][ncols]
		}
	}
	for j, c := range p.C {
		sol.Value += c * sol.X[j]
	}
	return sol, nil
}

// optimize runs primal simplex for the given objective over the current
// basis, returning the objective value. banned marks columns that may not
// enter the basis.
func (t *tableau) optimize(obj []float64, banned []bool) (float64, error) {
	m, ncols := len(t.a), t.ncols
	// Reduced costs maintained implicitly: z_j - c_j computed on demand from
	// the priced-out objective row (pooled buffer; rebuildZ rewrites it).
	z := t.z
	rebuildZ := func() {
		for j := 0; j <= ncols; j++ {
			z[j] = 0
		}
		for j := 0; j < ncols; j++ {
			z[j] = -obj[j]
		}
		for i := 0; i < m; i++ {
			cb := obj[t.basis[i]]
			if cb == 0 {
				continue
			}
			for j := 0; j <= ncols; j++ {
				z[j] += cb * t.a[i][j]
			}
		}
	}
	rebuildZ()

	for iter := 0; iter < maxIter; iter++ {
		// Bland's rule: lowest-index column with negative reduced cost.
		enter := -1
		for j := 0; j < ncols; j++ {
			if banned != nil && banned[j] {
				continue
			}
			if z[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return z[ncols], nil // optimal
		}
		// Ratio test, Bland tie-break on basis index.
		leave, best := -1, math.Inf(1)
		for i := 0; i < m; i++ {
			if t.a[i][enter] > eps {
				r := t.a[i][ncols] / t.a[i][enter]
				if r < best-eps || (r < best+eps && (leave == -1 || t.basis[i] < t.basis[leave])) {
					best, leave = r, i
				}
			}
		}
		if leave == -1 {
			return 0, errUnbounded
		}
		t.pivot(leave, enter)
		// Update the objective row incrementally.
		f := z[enter]
		if f != 0 {
			for j := 0; j <= ncols; j++ {
				z[j] -= f * t.a[leave][j]
			}
		}
	}
	return 0, errIterations
}

// pivot makes column enter basic in row r.
func (t *tableau) pivot(r, enter int) {
	t.pivots++
	m, ncols := len(t.a), t.ncols
	pv := t.a[r][enter]
	row := t.a[r]
	for j := 0; j <= ncols; j++ {
		row[j] /= pv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= ncols; j++ {
			t.a[i][j] -= f * row[j]
		}
	}
	t.basis[r] = enter
}
