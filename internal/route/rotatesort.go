package route

import (
	"meshpram/internal/mesh"
	"meshpram/internal/trace"
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
// The result is row-major ascending; SortSnakeRotate converts to snake
// order with one more (descending) pass over the odd rows. All phases
// run through the same merge-split block machinery as shearsort, so
// items-per-processor blocks of any size are supported; rotations are
// executed by the cycle-accurate greedy router, so their step cost is
// measured, not assumed.
//
// RotateSort requires a square region whose side is a perfect square
// (v = √side an integer); SortSnakeRotate falls back to shearsort
// (SortSnake) otherwise.

// SortAlgo selects the sorting network of the protocol's sorts.
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

// rotPkt carries one element of a rotating block to its target column.
type rotPkt[T any] struct {
	e elem[T]
	d int
}

// SortSnakeRotate sorts the region into snake order with RotateSort,
// with the same contract as SortSnake, which it falls back to when
// CanRotateSort(r) is false.
func SortSnakeRotate[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T]) (out [][]T, blockLen int, steps int64) {
	if !CanRotateSort(r) {
		return SortSnake(m, r, items, key)
	}
	sp := m.Ledger().Begin("rotatesort", trace.PhaseSort)
	defer func() {
		sp.Observe(steps)
		sp.End()
	}()
	L := maxLoad(m, r, items)
	if L == 0 {
		return items, 0, 0
	}
	blocks := loadBlocks(m, r, items, key, L)
	side := r.H
	v := isqrt(side)

	rowAsc := func(j int) []int {
		line := make([]int, r.W)
		for c := 0; c < r.W; c++ {
			line[c] = m.IDOf(r.R0+j, r.C0+c)
		}
		return line
	}

	// sortColsBands sorts every column independently within horizontal
	// bands of height h (band b covers rows [b·h, (b+1)·h)). All columns
	// and bands operate in parallel: one charge of h·L.
	sortColsBands := func(h int) {
		for b := 0; b < side/h; b++ {
			for c := 0; c < side; c++ {
				line := make([]int, h)
				for j := 0; j < h; j++ {
					line[j] = m.IDOf(r.R0+b*h+j, r.C0+c)
				}
				oetLine(blocks, line, L)
			}
		}
		steps += int64(h) * int64(L)
	}

	// rotateRowsWindows rotates every row within column windows of
	// width w (window s covers cols [s·w, (s+1)·w)) by shift(row mod h)
	// positions, where h is the row period of the pattern. All rows and
	// windows run in parallel; the cycle-accurate routing cost of the
	// worst row is charged once.
	rotateRowsWindows := func(w, period int, shift func(rel int) int) {
		var maxCost int64
		for j := 0; j < side; j++ {
			s := shift(j%period) % w
			if s == 0 {
				continue
			}
			row := r.R0 + j
			for win := 0; win < side/w; win++ {
				c0 := win * w
				line := mesh.Region{R0: row, C0: r.C0 + c0, H: 1, W: w}
				pkts := make([][]rotPkt[T], m.N)
				for c := 0; c < w; c++ {
					src := m.IDOf(row, r.C0+c0+c)
					dst := m.IDOf(row, r.C0+c0+(c+s)%w)
					for _, e := range blocks[src] {
						pkts[src] = append(pkts[src], rotPkt[T]{e, dst})
					}
				}
				delivered, cost := GreedyRoute(m, line, pkts, func(p rotPkt[T]) int { return p.d })
				if cost > maxCost {
					maxCost = cost
				}
				for c := 0; c < w; c++ {
					p := m.IDOf(row, r.C0+c0+c)
					blk := blocks[p][:0]
					for _, pk := range delivered[p] {
						blk = append(blk, pk.e)
					}
					blocks[p] = blk
				}
			}
		}
		steps += maxCost
	}

	// balanceVertical: every vertical slice (side×v) in parallel.
	balanceVertical := func() {
		sortColsBands(side)
		rotateRowsWindows(v, side, func(rel int) int { return rel % v })
		sortColsBands(side)
	}

	// balanceHorizontal: every horizontal slice (v×side) in parallel;
	// its columns have height v, its rotation pattern repeats per slice.
	balanceHorizontal := func() {
		sortColsBands(v)
		rotateRowsWindows(side, v, func(rel int) int { return rel % side })
		sortColsBands(v)
	}

	unblock := func() {
		rotateRowsWindows(side, side, func(rel int) int { return (rel * v) % side })
		sortColsBands(side)
	}

	shear := func() {
		for j := 0; j < side; j++ {
			line := rowAsc(j)
			if j%2 == 1 {
				rev := make([]int, len(line))
				for i := range line {
					rev[i] = line[len(line)-1-i]
				}
				line = rev
			}
			oetLine(blocks, line, L)
		}
		steps += int64(side) * int64(L)
		sortColsBands(side)
	}

	// 1. balance vertical slices (side×v each, in parallel).
	balanceVertical()
	// 2. unblock.
	unblock()
	// 3. balance horizontal slices (v×side each, in parallel).
	balanceHorizontal()
	// 4. unblock.
	unblock()
	// 5. shear ×3.
	shear()
	shear()
	shear()
	// 6. final row sort ascending (row-major order).
	for j := 0; j < side; j++ {
		oetLine(blocks, rowAsc(j), L)
	}
	steps += int64(side) * int64(L)

	// Convert row-major to snake: odd rows descending.
	for j := 1; j < side; j += 2 {
		line := rowAsc(j)
		rev := make([]int, len(line))
		for i := range line {
			rev[i] = line[len(line)-1-i]
		}
		oetLine(blocks, rev, L)
	}
	steps += int64(side) * int64(L)

	return storeBlocks(m, r, items, blocks), L, steps
}
