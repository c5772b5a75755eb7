package route

import (
	"meshpram/internal/mesh"
)

// RotateSort (Marberg–Gafni 1988) sorts an m×m mesh in O(m) row and
// column phases — removing the log factor of shearsort and thereby
// tightening the sorting substitution documented in DESIGN.md §2. The
// algorithm partitions the mesh into vertical slices (m×v), horizontal
// slices (v×m) and blocks (v×v) with v = √m, and interleaves column
// sorts with row rotations that spread every value range across many
// columns:
//
//	1. balance every vertical slice     (sort cols, rotate row i by i mod v, sort cols)
//	2. unblock                          (rotate row i by i·v mod m, sort cols)
//	3. balance every horizontal slice   (same, inside the v×m slice)
//	4. unblock
//	5. shear ×3                         (snake row sort + column sort)
//	6. final row sort
//
// The result is row-major ascending; one more (descending) pass over
// the odd rows converts it to snake order. Every phase is a merge-split
// odd-even transposition over blocks of L items or a row rotation that
// moves every block L slots, so the schedule is data-oblivious:
// RotateSortCost(r, L) is its exact step count, with each rotation
// charged the cycles the greedy router takes to route it.
// SortSnakeRotate therefore sorts like SortSnake — same output, same
// block length — and differs only in the cost it charges and the name
// of its span. The round-by-round network is kept in the tests as the
// reference both are checked against.
//
// RotateSort requires a square region whose side is a perfect square
// (v = √side an integer); SortSnakeRotate falls back to shearsort
// (SortSnake) otherwise.

// SortAlgo selects the sorting network the protocol's sorts are charged
// for.
type SortAlgo int

const (
	// ShearSort is the O(√n·log n) default used throughout the paper
	// reproduction.
	ShearSort SortAlgo = iota
	// RotateSort is the O(√n) Marberg–Gafni alternative (square regions
	// with integer √side only; falls back to shearsort elsewhere).
	RotateSort
)

// CanRotateSort reports whether RotateSort applies to the region.
func CanRotateSort(r mesh.Region) bool {
	if r.H != r.W {
		return false
	}
	v := isqrt(r.H)
	return v*v == r.H && v >= 2
}

func isqrt(n int) int {
	v := 0
	for (v+1)*(v+1) <= n {
		v++
	}
	return v
}

// SortSnakeRotate sorts the region into snake order with the contract
// of SortSnake and charges the RotateSort network
// (= RotateSortCost(r, blockLen)). It falls back to SortSnake when
// CanRotateSort(r) is false.
func SortSnakeRotate[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T]) (out [][]T, blockLen int, steps int64) {
	if !CanRotateSort(r) {
		return SortSnake(m, r, items, key)
	}
	return sortSnake(m, r, items, key, "rotatesort", RotateSortCost)
}

// RotateSortCost returns the step count SortSnakeRotate charges on
// region r with block length L: SortCost(r, L) where CanRotateSort(r)
// is false, and otherwise the exact cost of the RotateSort schedule
// above. With side s and v = √s that is s·L per column sort over full
// columns (seven) and per row pass (five: three shear row sorts, the
// final row sort and the snake conversion), v·L per column sort inside a
// horizontal slice (two), plus the four row rotations: the vertical
// balance shifts windows of v processors by 1…v−1, the horizontal
// balance whole rows by 1…v−1, and each unblock whole rows by
// v, 2v, …, (v−1)·v. All rows rotate in parallel, so a rotation costs
// its slowest shift.
func RotateSortCost(r mesh.Region, L int) int64 {
	if !CanRotateSort(r) {
		return SortCost(r, L)
	}
	if L == 0 {
		return 0
	}
	side := r.H
	v := isqrt(side)
	var small, multiples []int
	for k := 1; k < v; k++ {
		small = append(small, k)
		multiples = append(multiples, k*v)
	}
	rot := rowRotation(v, L, small) + rowRotation(side, L, small) + 2*rowRotation(side, L, multiples)
	return int64(12*side+2*v)*int64(L) + rot
}

// rowRotation returns the cycles the greedy router takes for the
// slowest of the given shifts of one window of w processors in a row,
// each holding L packets: the packets at column c go to column
// (c+s) mod w. Every window of a rotation holds exactly L items per
// processor, so it is this uniform instance.
func rowRotation(w, L int, shifts []int) int64 {
	m := mesh.MustNew(w)
	row := Tile(mesh.Region{H: 1, W: w})
	// Row 0 holds processors 0…w−1, the only ones the routing touches.
	items := make([][]int32, w)
	delivered := make([][]int32, w)
	eng := NewEngine[int32](m)
	var worst int64
	for _, s := range shifts {
		for c := range items {
			for range L {
				items[c] = append(items[c], int32((c+s)%w))
			}
			delivered[c] = delivered[c][:0]
		}
		_, cycles := eng.Route(delivered, row, items, func(d int32) int { return int(d) })
		worst = max(worst, cycles)
	}
	return worst
}
