package route

import (
	"meshpram/internal/mesh"
)

// Fault-aware greedy routing: the same cycle-accurate simulation as
// GreedyRoute, but consulting the machine's static fault map
// (mesh.Machine.Faults):
//
//   - a packet whose preferred dimension-ordered link is dead (or leads
//     to a dead node) detours: the remaining directions are tried in
//     order of resulting distance to the destination (ties by direction
//     index), staying inside the region (wrap links on the torus);
//   - a slow link with factor f carries one packet only on cycles
//     divisible by f;
//   - retries are bounded: a packet still undelivered after the detour
//     budget (16·(H+W) + 4·#packets cycles) is dropped and counted in
//     the returned lost figure, as is a packet whose destination node
//     is dead at injection.
//
// Every cycle spent detouring or waiting is a charged machine step, so
// fault-induced slowdown lands in the ledger exactly like healthy
// routing cost. With a nil (or empty) fault map the router makes
// bit-identical decisions to GreedyRoute: the preferred direction is
// always usable, no packet waits, and the budget never triggers.
//
// GreedyRouteFaultInto is a one-shot convenience over
// Engine.RouteFault (Engine.RouteTorusFault is the torus flavor); hot
// loops should hold a persistent Engine. It routes within a region
// over the plain mesh.
func GreedyRouteFaultInto[T any](dst [][]T, m *mesh.Machine, r mesh.Region, items [][]T, dest func(T) int) (delivered [][]T, steps int64, lost int) {
	return NewEngine[T](m).RouteFault(dst, r, items, dest)
}
