package core

// The compact shared-memory representation. The historical store was
// []map[int64]cell — one map header per processor, O(n) in the mesh
// size even when the memory held nothing, and ~100 bytes per resident
// cell. The HMOS memory is O(M·q^k) cells regardless of n, laid out by
// the scheme: every copy slot maps to (level-1 page, rank r1 among the
// page's p_1 copies, home processor) by O(k) arithmetic (SlotPlace).
// The slab store exploits that: cells live in flat per-page arrays
// indexed by r1, allocated lazily when a write first touches the page,
// so the resident footprint tracks the touched memory, not the mesh.
//
// Repair can relocate a dead module's copies to a spare processor; a
// cell hosted away from its scheme-computed home no longer has a slab
// position keyed by its physical location, so those (rare) cells live
// in a single sorted overflow list keyed by (processor, slot).
//
// The zero cell (ts == 0) means "never written": timestamps are the
// PRAM step clock, which starts at 1, so no written cell is zero.
// Explicitly storing a zero cell is therefore a logical no-op, which
// keeps snapshots canonical — they serialize nonzero cells only.

import (
	"sort"
	"unsafe"

	"meshpram/internal/hmos"
)

// fcell is one cell living away from its home processor (a copy
// relocated to a remap spare), in the sorted foreign overflow.
type fcell struct {
	proc int32
	slot int64
	val  Word
	ts   int64
}

// slabStore holds the simulated shared memory. Not safe for concurrent
// mutation.
type slabStore struct {
	sch *hmos.Scheme
	// slabs[pg] holds the cells of level-1 page pg, indexed by copy
	// rank r1 ∈ [0, p_1); nil until a write touches the page.
	slabs [][]cell
	// foreign holds remap-relocated cells, sorted by (proc, slot).
	foreign []fcell
}

func newSlabStore(sch *hmos.Scheme) *slabStore {
	return &slabStore{sch: sch, slabs: make([][]cell, sch.PageCount(1))}
}

// allocPage materializes the slab of one level-1 page.
func (st *slabStore) allocPage(page int) {
	if st.slabs[page] == nil {
		st.slabs[page] = make([]cell, st.sch.PagesPer[1])
	}
}

// getPlaced is get for a caller that already placed the copy: its
// level-1 page and rank r1, and whether p is not the copy's home (a
// remap spare, so the cell lives in the foreign overflow).
func (st *slabStore) getPlaced(p int, foreign bool, page, r1 int, slot int64) cell {
	if foreign {
		return st.foreignGet(p, slot)
	}
	if sl := st.slabs[page]; sl != nil {
		return sl[r1]
	}
	return cell{}
}

// set stores c at processor p under the given slot id. Sequential use
// only (it may allocate a slab or shift the foreign overflow).
func (st *slabStore) set(p int, slot int64, c cell) {
	page, r1, home := st.sch.SlotPlace(slot)
	if home == p {
		st.allocPage(page)
		st.slabs[page][r1] = c
		return
	}
	st.foreignSet(p, slot, c)
}

// foreignIdx locates (p, slot) in the foreign overflow: its index when
// present, else the insertion point.
func (st *slabStore) foreignIdx(p int, slot int64) (int, bool) {
	i := sort.Search(len(st.foreign), func(i int) bool {
		f := &st.foreign[i]
		return int(f.proc) > p || (int(f.proc) == p && f.slot >= slot)
	})
	if i < len(st.foreign) && int(st.foreign[i].proc) == p && st.foreign[i].slot == slot {
		return i, true
	}
	return i, false
}

func (st *slabStore) foreignGet(p int, slot int64) cell {
	if i, ok := st.foreignIdx(p, slot); ok {
		return cell{val: st.foreign[i].val, ts: st.foreign[i].ts}
	}
	return cell{}
}

func (st *slabStore) foreignSet(p int, slot int64, c cell) {
	i, ok := st.foreignIdx(p, slot)
	if ok {
		st.foreign[i].val, st.foreign[i].ts = c.val, c.ts
		return
	}
	st.foreign = append(st.foreign, fcell{})
	copy(st.foreign[i+1:], st.foreign[i:])
	st.foreign[i] = fcell{proc: int32(p), slot: slot, val: c.val, ts: c.ts}
}

// clearProc erases every cell physically resident on processor p (the
// data-loss fiction of a module death): p's share of its home page's
// slab plus any relocated cells parked at p.
func (st *slabStore) clearProc(p int) {
	m := st.sch.Mesh()
	pg := m.Full().SubRegionIndex(m, st.sch.Q, st.sch.PageCount(1), p)
	if sl := st.slabs[pg]; sl != nil {
		reg := st.sch.PageRegion(1, pg)
		t := st.sch.T[1]
		// Copies are placed at snake position r1 mod t_1, so p holds the
		// ranks congruent to its snake index (none if it is beyond t_1).
		if i := reg.SnakeIndex(m, p); i < t {
			for r1 := i; r1 < len(sl); r1 += t {
				sl[r1] = cell{}
			}
		}
	}
	if len(st.foreign) > 0 {
		kept := st.foreign[:0]
		for _, fc := range st.foreign {
			if int(fc.proc) != p {
				kept = append(kept, fc)
			}
		}
		st.foreign = kept
	}
}

// memBytes returns the resident heap bytes of the store.
func (st *slabStore) memBytes() int64 {
	b := int64(cap(st.slabs)) * 24
	for _, sl := range st.slabs {
		b += int64(cap(sl)) * int64(unsafe.Sizeof(cell{}))
	}
	b += int64(cap(st.foreign)) * int64(unsafe.Sizeof(fcell{}))
	return b
}
