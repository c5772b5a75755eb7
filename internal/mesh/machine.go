// Package mesh models the target machine of the paper: a synchronous
// n-node square mesh where each processor owns a local memory module
// and is connected to at most four neighbors by point-to-point links.
//
// The package provides the machine (step accounting, the cost ledger
// and the fault map) and the geometry:
// rectangular regions (submeshes), snake-order indexing inside a
// region, and the recursive q-ary tessellations that carry the HMOS
// levels (§3.3 of the paper: "different levels correspond to different
// tessellations of the mesh into disjoint submeshes").
//
// Cost model (see DESIGN.md §6): one step = every processor may do O(1)
// local work and exchange one word with each neighbor. Algorithms in
// internal/route charge their executed rounds to the machine via
// AddSteps; the machine itself never moves data.
//
// Cost ledger: a machine may carry a trace.Ledger. Every AddSteps then
// also charges the ledger's active phase span, so instrumented callers
// (internal/core, internal/baseline, internal/pram) produce one
// hierarchical cost tree whose Total equals the step-counter delta.
// Pure algorithms in internal/route open observe-only spans on the same
// ledger for per-submesh audit detail.
package mesh

import (
	"fmt"
	"sync/atomic"

	"meshpram/internal/fault"
	"meshpram/internal/trace"
)

// Machine is an s×s mesh of processors identified by id = row*Side+col.
type Machine struct {
	Side int // s
	N    int // s·s

	steps  atomic.Int64
	ledger *trace.Ledger // optional phase-span accounting; nil = counter only
	faults *fault.Map    // optional static fault map; nil = healthy
}

// New creates a mesh with the given side length (s ≥ 1).
func New(side int) (*Machine, error) {
	if side < 1 {
		return nil, fmt.Errorf("mesh: side %d must be ≥ 1", side)
	}
	return &Machine{Side: side, N: side * side}, nil
}

// MustNew is New but panics on error.
func MustNew(side int) *Machine {
	m, err := New(side)
	if err != nil {
		panic(err)
	}
	return m
}

// AttachLedger installs the machine's cost ledger: subsequent AddSteps
// calls also charge the ledger's active span. A nil ledger detaches.
func (m *Machine) AttachLedger(l *trace.Ledger) { m.ledger = l }

// Ledger returns the attached cost ledger (nil when none).
func (m *Machine) Ledger() *trace.Ledger { return m.ledger }

// SetFaults installs a fault map and freezes it: the chainable
// Kill*/Slow* builders refuse afterwards, so a map cannot be mutated
// behind the machine's back (fault.Map.Clone is the copy-on-write
// escape hatch). Dynamic fault timelines go through fault.Schedule +
// fault.Map.Apply, which the core simulator drives between steps — the
// routing and access layers only assume component health is stable
// *within* one routing phase. A nil map (the default) means a healthy
// machine and keeps every fault-aware path on its fault-free fast
// path; panics if the map was built for a different side.
func (m *Machine) SetFaults(f *fault.Map) {
	if f != nil && f.Side() != m.Side {
		panic(fmt.Sprintf("mesh: fault map side %d does not match machine side %d", f.Side(), m.Side))
	}
	m.faults = f.Freeze()
}

// Faults returns the installed fault map (nil when healthy).
func (m *Machine) Faults() *fault.Map { return m.faults }

// AddSteps charges n machine steps (n ≥ 0) to the step counter and,
// when a ledger is attached, to its active phase span.
func (m *Machine) AddSteps(n int64) {
	if n < 0 {
		panic("mesh: negative step charge")
	}
	m.steps.Add(n)
	m.ledger.Charge(n)
}

// Steps returns the total steps charged so far.
func (m *Machine) Steps() int64 { return m.steps.Load() }

// RowOf returns the row of processor p.
func (m *Machine) RowOf(p int) int { return p / m.Side }

// ColOf returns the column of processor p.
func (m *Machine) ColOf(p int) int { return p % m.Side }

// IDOf returns the processor at (row, col).
func (m *Machine) IDOf(row, col int) int { return row*m.Side + col }

// Dist returns the Manhattan distance between processors p and r.
func (m *Machine) Dist(p, r int) int {
	dr := m.RowOf(p) - m.RowOf(r)
	if dr < 0 {
		dr = -dr
	}
	dc := m.ColOf(p) - m.ColOf(r)
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// Full returns the region covering the whole mesh.
func (m *Machine) Full() Region { return Region{R0: 0, C0: 0, H: m.Side, W: m.Side} }
