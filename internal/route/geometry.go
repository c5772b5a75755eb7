package route

import (
	"meshpram/internal/mesh"
)

// The greedy router's link geometry. A packet routes column-first: along
// its row to the destination column, then along that column. On the
// mesh (wrap unset) it stays inside its region; on the torus (wrap set)
// it takes the shorter way around each ring, ties to the non-wrap
// direction. Directions are 0 = −col, 1 = +col, 2 = −row, 3 = +row.

// nextDir returns the direction of the next hop from p toward dest.
func nextDir(m *mesh.Machine, p, dest int, wrap bool) int8 {
	if pc, dc := m.ColOf(p), m.ColOf(dest); pc != dc {
		if forward(pc, dc, m.Side, wrap) {
			return 1
		}
		return 0
	}
	return rowDirAfterCol(m, p, dest, wrap)
}

// rowDirAfterCol returns the row direction from p toward dest, the one
// a packet takes once it reaches its destination column (+row when p
// already lies on dest's row).
func rowDirAfterCol(m *mesh.Machine, p, dest int, wrap bool) int8 {
	if forward(m.RowOf(p), m.RowOf(dest), m.Side, wrap) {
		return 3
	}
	return 2
}

// forward reports whether the step from cur toward dst along one axis
// of the given size goes up (+1): on a ring the shorter way round, and
// up on a tie or when cur = dst.
func forward(cur, dst, size int, wrap bool) bool {
	if wrap {
		return (dst-cur+size)%size <= (cur-dst+size)%size
	}
	return cur <= dst
}

// hopDist returns the hop distance from p to dest.
func hopDist(m *mesh.Machine, p, dest int, wrap bool) int {
	if !wrap {
		return m.Dist(p, dest)
	}
	return ringDist(m.ColOf(p), m.ColOf(dest), m.Side) + ringDist(m.RowOf(p), m.RowOf(dest), m.Side)
}

// ringDist is the hop distance between positions a and b of a ring of
// the given size.
func ringDist(a, b, size int) int {
	d := (b - a + size) % size
	return min(d, size-d)
}
