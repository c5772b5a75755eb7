package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"meshpram/internal/faultview"
	"meshpram/internal/hmos"
)

// Snapshot support: serialize the simulated shared memory (the copy
// cells of every processor, with timestamps) so long experiments can
// checkpoint and resume, and so memory images can be moved between
// simulators.
//
// The wire format is a stream of gob values: one header, then one
// record per touched level-1 page, then the foreign-cell record, then
// (local fault view only) the gossip state. Save never buffers more
// than one record, so checkpointing a million-node mesh needs memory
// proportional to the resident cells of one page, not the mesh.
//
// The encoding is deterministic: identical simulator state yields
// byte-identical images. That is why the remap table travels as two
// sorted parallel slices (gob encodes Go maps in randomized iteration
// order), the quarantine set and the page records are emitted in
// ascending order, and zero cells are skipped (a cell with ts == 0 is
// logically absent, so images depend only on the logical state, never
// on which slabs happen to be allocated). The multi-run bit-identity
// fixtures diff raw snapshot bytes, so any nondeterminism here is a
// test failure.
//
// Version history. Version 2 (current) is the streaming page format.
// Version 1 images — written before the slab store, as a single gob
// value holding every processor's cells — carry no Version field (gob
// leaves it 0) and deliver their payload through the header's legacy
// Procs field; Load accepts both.

// snapshotVersion is the wire format written by Save.
const snapshotVersion = 2

// snapHeader is the leading gob value of an image.
type snapHeader struct {
	Version int // 0 = legacy single-value image
	Params  hmos.Params
	Now     int64

	// Self-healing state (repair.go). Without it a restored image could
	// serve a quarantined (lost) copy as fresh, or look for relocated
	// copies at their original homes. The schedule replay cursor is
	// deliberately absent: events already applied live on in the fault
	// map, and a rollback must not replay them. RemapFrom/RemapTo are
	// the remap table as parallel slices sorted by RemapFrom.
	RemapFrom []int
	RemapTo   []int
	Quar      []int64
	Pending   []int

	// Pages counts the pageImage records that follow the header;
	// Foreign is 1 when a foreignImage record follows them.
	Pages   int
	Foreign int

	// Procs is the legacy (version ≤ 1) in-header payload: per-processor
	// slot/value/timestamp arrays. Version-2 images leave it empty.
	Procs []procImage
}

// procImage is one processor's cells in the legacy format.
type procImage struct {
	Proc  int
	Slots []int64
	Vals  []Word
	TSs   []int64
}

// pageImage is one level-1 page's nonzero cells: parallel arrays
// indexed by ascending copy rank r1.
type pageImage struct {
	Page  int
	Ranks []int32
	Vals  []Word
	TSs   []int64
}

// foreignImage carries the remap-relocated cells, sorted by
// (processor, slot).
type foreignImage struct {
	Procs []int32
	Slots []int64
	Vals  []Word
	TSs   []int64
}

// viewSnapshot is the trailing gob value of a local-fault-view image:
// the gossip state (notice log, per-node knowledge bitsets, round and
// dissemination counters) plus the coordinator's notified queue as
// parallel slices. Global-mode images do not carry it, so their byte
// stream is unchanged by the faultview feature.
type viewSnapshot struct {
	View           faultview.Image
	NotifiedHost   []int
	NotifiedNotice []int
	NotifiedStep   []int64
}

// pageTouched reports whether a page slab holds any nonzero cell.
func pageTouched(sl []cell) bool {
	for _, c := range sl {
		if c.ts != 0 {
			return true
		}
	}
	return false
}

// Save writes the simulator's memory state (copies, timestamps, and the
// step clock) to w as a stream of bounded records. Step accounting is
// not part of the image. Identical state encodes to identical bytes
// (see the package comment above).
func (sim *Simulator) Save(w io.Writer) error {
	hdr := snapHeader{Version: snapshotVersion, Params: sim.S.Params, Now: sim.now}
	if len(sim.remap) > 0 {
		hdr.RemapFrom = make([]int, 0, len(sim.remap))
		for k := range sim.remap {
			hdr.RemapFrom = append(hdr.RemapFrom, k)
		}
		sort.Ints(hdr.RemapFrom)
		hdr.RemapTo = make([]int, len(hdr.RemapFrom))
		for i, k := range hdr.RemapFrom {
			hdr.RemapTo[i] = sim.remap[k]
		}
	}
	if sim.quar != nil {
		sim.quar.ForEach(func(i int) { hdr.Quar = append(hdr.Quar, int64(i)) })
	}
	hdr.Pending = append(hdr.Pending, sim.pending...)
	for _, sl := range sim.st.slabs {
		if pageTouched(sl) {
			hdr.Pages++
		}
	}
	for i := range sim.st.foreign {
		if sim.st.foreign[i].ts != 0 {
			hdr.Foreign = 1
			break
		}
	}

	enc := gob.NewEncoder(w)
	if err := enc.Encode(&hdr); err != nil {
		return err
	}
	var pi pageImage
	for pg, sl := range sim.st.slabs {
		if !pageTouched(sl) {
			continue
		}
		pi.Page = pg
		pi.Ranks, pi.Vals, pi.TSs = pi.Ranks[:0], pi.Vals[:0], pi.TSs[:0]
		for r1, c := range sl {
			if c.ts == 0 {
				continue
			}
			pi.Ranks = append(pi.Ranks, int32(r1))
			pi.Vals = append(pi.Vals, c.val)
			pi.TSs = append(pi.TSs, c.ts)
		}
		if err := enc.Encode(&pi); err != nil {
			return err
		}
	}
	if hdr.Foreign != 0 {
		var fi foreignImage
		for i := range sim.st.foreign {
			fc := &sim.st.foreign[i]
			if fc.ts == 0 {
				continue
			}
			fi.Procs = append(fi.Procs, fc.proc)
			fi.Slots = append(fi.Slots, fc.slot)
			fi.Vals = append(fi.Vals, fc.val)
			fi.TSs = append(fi.TSs, fc.ts)
		}
		if err := enc.Encode(&fi); err != nil {
			return err
		}
	}
	if sim.view == nil {
		return nil
	}
	vi := viewSnapshot{View: sim.view.Image()}
	for _, nd := range sim.notified {
		vi.NotifiedHost = append(vi.NotifiedHost, nd.host)
		vi.NotifiedNotice = append(vi.NotifiedNotice, nd.notice)
		vi.NotifiedStep = append(vi.NotifiedStep, nd.diedStep)
	}
	return enc.Encode(&vi)
}

// Load restores a memory image previously written by Save into this
// simulator — either the current streaming format or a legacy
// version-1 single-value image. The HMOS parameters must match exactly
// (the copy layout is parameter-dependent); the current memory content
// is replaced. A local-fault-view simulator additionally restores the
// gossip state (the image must come from a local-view Save); the live
// fault map is never part of the image — events already applied stay
// applied, and the restored beliefs are re-validated against the
// current truth.
func (sim *Simulator) Load(r io.Reader) error {
	dec := gob.NewDecoder(r)
	var hdr snapHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if hdr.Version != 0 && hdr.Version != snapshotVersion {
		return fmt.Errorf("core: unsupported snapshot version %d", hdr.Version)
	}
	if hdr.Params != sim.S.Params {
		return fmt.Errorf("core: snapshot params %+v do not match simulator %+v", hdr.Params, sim.S.Params)
	}
	if len(hdr.RemapFrom) != len(hdr.RemapTo) {
		return fmt.Errorf("core: snapshot remap table is ragged (%d from, %d to)", len(hdr.RemapFrom), len(hdr.RemapTo))
	}
	st := newSlabStore(sim.S)
	if hdr.Version == 0 {
		if err := loadLegacyProcs(st, hdr.Procs, sim.M.N); err != nil {
			return err
		}
	} else {
		if err := loadPages(st, dec, hdr.Pages, hdr.Foreign != 0); err != nil {
			return err
		}
	}
	sim.st = st
	sim.now = hdr.Now
	sim.remap = nil
	if len(hdr.RemapFrom) > 0 {
		sim.remap = make(map[int]int, len(hdr.RemapFrom))
		for i, from := range hdr.RemapFrom {
			sim.remap[from] = hdr.RemapTo[i]
		}
	}
	sim.quar = nil
	if len(hdr.Quar) > 0 {
		sim.ensureQuar()
		for _, slot := range hdr.Quar {
			if slot < 0 || slot >= int64(sim.quar.Len()) {
				return fmt.Errorf("core: snapshot quarantine slot %d out of range", slot)
			}
			sim.quar.Set(int(slot), true)
		}
	}
	sim.pending = append(sim.pending[:0], hdr.Pending...)
	if sim.view == nil {
		return nil
	}
	var vi viewSnapshot
	if err := dec.Decode(&vi); err != nil {
		return fmt.Errorf("core: decoding fault-view snapshot: %w", err)
	}
	if len(vi.NotifiedHost) != len(vi.NotifiedNotice) || len(vi.NotifiedHost) != len(vi.NotifiedStep) {
		return fmt.Errorf("core: snapshot notified queue is ragged")
	}
	if err := sim.view.Restore(vi.View, sim.faults); err != nil {
		return fmt.Errorf("core: restoring fault view: %w", err)
	}
	sim.notified = sim.notified[:0]
	for i, h := range vi.NotifiedHost {
		sim.notified = append(sim.notified, notifiedDeath{
			host: h, notice: vi.NotifiedNotice[i], diedStep: vi.NotifiedStep[i],
		})
	}
	return nil
}

// loadPages reads the streamed page and foreign records of a version-2
// image into a fresh store.
func loadPages(st *slabStore, dec *gob.Decoder, pages int, foreign bool) error {
	nPages := st.sch.PageCount(1)
	perPage := st.sch.PagesPer[1]
	for i := 0; i < pages; i++ {
		var pi pageImage
		if err := dec.Decode(&pi); err != nil {
			return fmt.Errorf("core: decoding snapshot page record %d/%d: %w", i, pages, err)
		}
		if pi.Page < 0 || pi.Page >= nPages {
			return fmt.Errorf("core: snapshot page %d out of range [0,%d)", pi.Page, nPages)
		}
		if len(pi.Ranks) != len(pi.Vals) || len(pi.Ranks) != len(pi.TSs) {
			return fmt.Errorf("core: snapshot page %d has ragged cell arrays", pi.Page)
		}
		st.allocPage(pi.Page)
		sl := st.slabs[pi.Page]
		for j, r1 := range pi.Ranks {
			if r1 < 0 || int(r1) >= perPage {
				return fmt.Errorf("core: snapshot page %d rank %d out of range [0,%d)", pi.Page, r1, perPage)
			}
			sl[r1] = cell{val: pi.Vals[j], ts: pi.TSs[j]}
		}
	}
	if !foreign {
		return nil
	}
	var fi foreignImage
	if err := dec.Decode(&fi); err != nil {
		return fmt.Errorf("core: decoding snapshot foreign record: %w", err)
	}
	if len(fi.Procs) != len(fi.Slots) || len(fi.Procs) != len(fi.Vals) || len(fi.Procs) != len(fi.TSs) {
		return fmt.Errorf("core: snapshot foreign record has ragged arrays")
	}
	n := st.sch.Mesh().N
	for i, p := range fi.Procs {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("core: snapshot foreign processor %d out of range", p)
		}
		st.foreignSet(int(p), fi.Slots[i], cell{val: fi.Vals[i], ts: fi.TSs[i]})
	}
	return nil
}

// loadLegacyProcs converts a version-1 per-processor payload into the
// slab store.
func loadLegacyProcs(st *slabStore, procs []procImage, n int) error {
	for _, pi := range procs {
		if pi.Proc < 0 || pi.Proc >= n {
			return fmt.Errorf("core: snapshot processor %d out of range", pi.Proc)
		}
		if len(pi.Slots) != len(pi.Vals) || len(pi.Slots) != len(pi.TSs) {
			return fmt.Errorf("core: snapshot processor %d has ragged slot arrays", pi.Proc)
		}
		for i, slot := range pi.Slots {
			if slot < 0 || slot >= int64(st.sch.Vars())*int64(st.sch.Redundant) {
				return fmt.Errorf("core: snapshot slot %d out of range", slot)
			}
			st.set(pi.Proc, slot, cell{val: pi.Vals[i], ts: pi.TSs[i]})
		}
	}
	return nil
}
