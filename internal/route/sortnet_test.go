package route

import "meshpram/internal/mesh"

// sortSnakeNet is the reference SortSnake is checked against: the
// shearsort merge-split network simulated round by round — odd-even
// transposition along every row and column for shearSortPhases(H)
// iterations, then one final row pass. It has SortSnake's contract and
// returns the block length and SortCost of the same region.
func sortSnakeNet[T any](m *mesh.Machine, r mesh.Region, items [][]T, key Key[T]) (out [][]T, blockLen int, steps int64) {
	L := maxLoad(m, r, items)
	if L == 0 {
		return items, 0, 0
	}
	blocks := loadBlocks(m, r, items, key, L)
	if r.H == 1 || r.W == 1 {
		var line []int
		if r.H == 1 {
			line = r.RowLine(m, 0)
		} else {
			line = r.ColLine(m, 0)
		}
		oetLine(blocks, line, L)
	} else {
		for p := 0; p < shearSortPhases(r.H); p++ {
			for j := 0; j < r.H; j++ {
				oetLine(blocks, r.RowLine(m, j), L)
			}
			for c := 0; c < r.W; c++ {
				oetLine(blocks, r.ColLine(m, c), L)
			}
		}
		for j := 0; j < r.H; j++ {
			oetLine(blocks, r.RowLine(m, j), L)
		}
	}
	return storeBlocks(m, r, items, blocks), L, SortCost(r, L)
}

// snakeSorts is SortSnake and its network reference, for the tests
// every snake sort must pass.
var snakeSorts = []struct {
	name string
	sort func(*mesh.Machine, mesh.Region, [][]item, Key[item]) ([][]item, int, int64)
}{
	{"SortSnake", SortSnake[item]},
	{"network", sortSnakeNet[item]},
}
