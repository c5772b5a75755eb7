package route

import (
	"meshpram/internal/mesh"
)

// topology abstracts the link structure the greedy router moves packets
// over: the plain mesh (dimension-ordered XY inside a region) or the
// torus (wrap-around links, shorter-way-first per axis).
type topology interface {
	// next returns the outgoing direction (0..3, unique per link) and
	// the neighbor it leads to, en route from p to dest.
	next(p, dest int) (dir, to int)
	// dist is the remaining hop distance from p to dest.
	dist(p, dest int) int
}

// meshTopo routes column-first inside a rectangular region.
type meshTopo struct{ m *mesh.Machine }

func (t meshTopo) next(p, dest int) (dir, to int) {
	m := t.m
	pc, dc := m.ColOf(p), m.ColOf(dest)
	switch {
	case pc > dc:
		return 0, p - 1
	case pc < dc:
		return 1, p + 1
	}
	if m.RowOf(p) > m.RowOf(dest) {
		return 2, p - m.Side
	}
	return 3, p + m.Side
}

func (t meshTopo) dist(p, dest int) int { return t.m.Dist(p, dest) }

// torusTopo routes column-first over the full mesh with wrap-around
// links, taking the shorter way around each axis (ties: the non-wrap
// direction).
type torusTopo struct{ m *mesh.Machine }

func (t torusTopo) axis(cur, dst, size int) (step, hops int) {
	// Returns the signed unit step (−1, +1, or 0 if aligned) taking the
	// shorter way around the ring, and the hop count that way.
	if cur == dst {
		return 0, 0
	}
	fwd := (dst - cur + size) % size  // steps going +1
	back := (cur - dst + size) % size // steps going -1
	if fwd <= back {
		return 1, fwd
	}
	return -1, back
}

func (t torusTopo) next(p, dest int) (dir, to int) {
	m := t.m
	s := m.Side
	pc, dc := m.ColOf(p), m.ColOf(dest)
	if step, _ := t.axis(pc, dc, s); step != 0 {
		nc := (pc + step + s) % s
		if step < 0 {
			return 0, m.IDOf(m.RowOf(p), nc)
		}
		return 1, m.IDOf(m.RowOf(p), nc)
	}
	pr, dr := m.RowOf(p), m.RowOf(dest)
	step, _ := t.axis(pr, dr, s)
	nr := (pr + step + s) % s
	if step < 0 {
		return 2, m.IDOf(nr, m.ColOf(p))
	}
	return 3, m.IDOf(nr, m.ColOf(p))
}

func (t torusTopo) dist(p, dest int) int {
	s := t.m.Side
	_, dc := t.axis(t.m.ColOf(p), t.m.ColOf(dest), s)
	_, dr := t.axis(t.m.RowOf(p), t.m.RowOf(dest), s)
	return dc + dr
}

// GreedyRoute delivers every item to its destination processor using
// cycle-accurate dimension-ordered (column-first) greedy routing: in
// each cycle every directed link carries at most one packet, chosen by
// farthest-remaining-distance first (ties broken by injection order).
// Buffers are unbounded (store-and-forward). Destinations must lie
// inside the region; the XY path then stays inside it.
//
// It returns the delivered items per processor and the number of cycles
// (= machine steps) the routing took. The engine solves each row and
// column pipeline on its own rather than stepping the whole region
// cycle by cycle; delivery order and cycles are those of the
// cycle-stepped machine.
//
// GreedyRoute and GreedyRouteTorus (below) are
// one-shot conveniences over route.Engine; hot loops should hold a
// persistent Engine instead so queue and arrival storage is reused
// across calls.
func GreedyRoute[T any](m *mesh.Machine, r mesh.Region, items [][]T, dest func(T) int) (delivered [][]T, steps int64) {
	return NewEngine[T](m).Route(nil, r, items, dest)
}

// GreedyRouteTorus is GreedyRoute on the full machine with wrap-around
// links (the torus extension; experiment E16), stepped cycle by cycle
// on the engine's cycle loop. The region is always the whole mesh —
// wrap paths cannot be confined to a submesh.
func GreedyRouteTorus[T any](m *mesh.Machine, items [][]T, dest func(T) int) (delivered [][]T, steps int64) {
	return NewEngine[T](m).RouteTorus(nil, items, dest)
}
