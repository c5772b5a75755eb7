package core

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"meshpram/internal/hmos"
)

// The slab store's resident footprint must track the touched memory
// (O(M·q^k)), not the mesh: the historical []map store paid one map
// header per processor, which at a million nodes dwarfed the data.

// TestStoreFootprintIndependentOfMeshSide runs the identical workload
// on two meshes of different sides (same memory parameters, so the
// same variables and pages) and requires byte-equal store footprints.
func TestStoreFootprintIndependentOfMeshSide(t *testing.T) {
	footprint := func(side int) int64 {
		sim := mustNew(hmos.Params{Side: side, Q: 3, D: 3, K: 2}, Config{})
		rng := rand.New(rand.NewSource(5))
		vars := rng.Perm(sim.S.Vars())[:40]
		ops := make([]Op, len(vars))
		for i, v := range vars {
			ops[i] = Op{Origin: i, Var: v, IsWrite: true, Value: Word(v)}
		}
		sim.Step(ops)
		return sim.MemReport().Store
	}
	small, big := footprint(9), footprint(27)
	if small != big {
		t.Fatalf("store footprint scales with mesh: %d bytes at side 9, %d at side 27", small, big)
	}
	if small == 0 {
		t.Fatal("store footprint zero after writes")
	}
}

// TestStoreLazyAllocation: an untouched simulator retains no slabs at
// all, and a single write allocates exactly the one page it lands in.
func TestStoreLazyAllocation(t *testing.T) {
	sim := mustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, Config{})
	count := func() int {
		n := 0
		for _, sl := range sim.st.slabs {
			if sl != nil {
				n++
			}
		}
		return n
	}
	if got := count(); got != 0 {
		t.Fatalf("%d slabs allocated before any write", got)
	}
	sim.Step([]Op{{Origin: 0, Var: 3, IsWrite: true, Value: 42}})
	// Allocation is write-driven: every allocated slab must hold a
	// written cell (the write's target set spans at least one page).
	got := count()
	if got == 0 {
		t.Fatal("write allocated no slabs")
	}
	for pg, sl := range sim.st.slabs {
		if sl != nil && !pageTouched(sl) {
			t.Fatalf("slab %d allocated without a written cell", pg)
		}
	}
	// Reads allocate nothing.
	before := count()
	sim.Step([]Op{{Origin: 1, Var: 5}})
	if got := count(); got != before {
		t.Fatalf("a read allocated slabs (%d → %d)", before, got)
	}
}

// TestCompactKeepsIdentity interleaves Compact with steps and demands
// results identical to an untouched twin, with the routing layer's
// retained bytes actually dropping to zero at the compaction point.
func TestCompactKeepsIdentity(t *testing.T) {
	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	mk := func() *Simulator { return mustNew(p, Config{}) }
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 6; step++ {
		vars := rng.Perm(a.S.Vars())[:30]
		ops := make([]Op, len(vars))
		for i, v := range vars {
			ops[i] = Op{Origin: rng.Intn(a.M.N), Var: v, IsWrite: step%2 == 0, Value: Word(v * step)}
		}
		ra, sa := a.Step(ops)
		rb, sb := b.Step(ops)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("step %d: results diverged after Compact", step)
		}
		if sa.Total() != sb.Total() {
			t.Fatalf("step %d: charged steps diverged (%d vs %d)", step, sa.Total(), sb.Total())
		}
		if step == 2 {
			if a.MemReport().Routing == 0 {
				t.Fatal("routing bytes zero before Compact; nothing to test")
			}
			// The packet and waypoint tables keep their capacity between
			// steps and are counted in the routing layer.
			if cap(a.pk) == 0 || cap(a.wp) == 0 {
				t.Fatalf("packet tables empty before Compact (cap pk %d, wp %d)", cap(a.pk), cap(a.wp))
			}
			tables := int64(cap(a.pk))*int64(unsafe.Sizeof(pkt{})) + int64(cap(a.wp))*4
			if got := a.MemReport().Routing; got < tables {
				t.Fatalf("routing bytes %d do not cover the packet tables' %d", got, tables)
			}
			a.Compact()
			if a.pk != nil || a.wp != nil {
				t.Fatal("Compact kept the packet tables")
			}
			if got := a.MemReport().Routing; got != 0 {
				t.Fatalf("routing bytes %d after Compact, want 0", got)
			}
		}
	}
}
