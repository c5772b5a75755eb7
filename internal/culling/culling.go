// Package culling is the one home of copy selection: which copies of
// each requested variable a PRAM step accesses. Place walks every
// request's copy tree once (hmos.PlaceTree) into flat per-copy tables;
// Placement.Select then picks copies under one of four disciplines and
// returns a Result that carries the page loads, the charged cost and
// the verdict rule for the copies that come back.
//
// The paper's discipline is CULLING (§3.2): k iterations that
// progressively shrink, for every requested variable v, an initial
// minimal level-0 target set C_v^0 down to a plain (level-k) target set
// C_v, while capping the number of selected copies that fall into any
// level-i page at 2q^k·n^{1−1/2^i} marked copies — which yields the
// Theorem 3 invariant that no level-i page is addressed by more than
// 4q^k·n^{1−1/2^i} copies of ∪C_v^i. The procedure is executed by the n
// mesh processors via sorting and ranking of the ≤ n·q^k copy
// descriptors; its step cost is O(k·q^k·√n) (equation (2)), charged
// here as k iterations of one snake sort with block length q^k plus one
// prefix-sum pass. The other disciplines are local choices that charge
// nothing: minimal plain target sets without congestion control (the
// E2/E12 ablation), minimal level-0 target sets (the retry path), and
// the Mehlhorn–Vishkin read-one/write-all rule [MV84] (E13).
package culling

import (
	"fmt"
	"math"
	"slices"

	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
	"meshpram/internal/route"
)

// Discipline selects which copies an access reaches. The zero value is
// the paper's.
type Discipline int

const (
	// Culled selects a minimal plain target set per request by CULLING,
	// bounding every level-i page load by Theorem 3.
	Culled Discipline = iota
	// Unculled selects a minimal plain target set per request without
	// congestion control: the ablation baseline of E2/E12.
	Unculled
	// Hardened selects a minimal level-0 target set per request:
	// extensive quorums at every tree level, so the returned copies
	// keep certifying root access even when isolated packets are lost
	// on the round trip. The pram retry layer re-executes a rolled-back
	// step with it; its extra cost is the larger packet count, which
	// the routing phases charge.
	Hardened
	// ReadOneWriteAll is the [MV84] discipline: a write selects every
	// live copy, a read the first live copy scanning from leaf Var mod
	// q^k (a fixed load-spreading choice). No congestion control runs —
	// that is the point of the comparison (E13). A read served by any
	// live copy is correct only because writes update every copy, which
	// is why a write that loses any copy fails certification.
	ReadOneWriteAll
)

// Request is one PRAM memory request: the mesh processor Origin wants
// to access variable Var, writing it when Write is set. Only
// ReadOneWriteAll tells reads from writes.
type Request struct {
	Origin int
	Var    int
	Write  bool
}

// SelectedCopy is a copy chosen for the access protocol.
type SelectedCopy struct {
	Leaf int   // leaf index in T_v
	Proc int   // destination processor (the copy's unresolved home)
	Page int32 // level-1 page holding the copy
	Rank int32 // the copy's rank r1 among the page's p_1 copies
}

// Result carries the selection and its diagnostics.
type Result struct {
	// Selected[r] lists the copies of request r to access (for Culled,
	// a minimal plain target set, C_v of the paper). nil for unservable
	// requests (see Unservable).
	Selected [][]SelectedCopy

	// PageLoad[i] (1 ≤ i ≤ K) maps level-i page index → number of
	// selected copies in that page: for Culled, the copies of ∪_v C_v^i
	// after iteration i; for the other disciplines, the final selection.
	PageLoad [][]int

	// Bound[i] = ⌈4·q^k·n^{1−1/2^i}⌉, the Theorem 3 bound at level i.
	Bound []int

	// Steps is the charged mesh step cost (equation (2) shape; zero for
	// every discipline but Culled).
	Steps int64

	// Unservable lists requests whose available copies hold no set the
	// discipline accepts — under the majority rule no plain target set,
	// under ReadOneWriteAll no live copy. Their variable is
	// unrecoverable and no packets are produced for them.
	Unservable []int

	s    *hmos.Scheme
	disc Discipline
	reqs []Request
}

// MaxLoad returns the maximum level-i page load and its bound.
func (r *Result) MaxLoad(i int) (load, bound int) {
	for _, l := range r.PageLoad[i] {
		if l > load {
			load = l
		}
	}
	return load, r.Bound[i]
}

// Certifies reports whether the copies of request i that completed the
// round trip still certify its access. returned masks the leaves that
// came back (nil when none did). Under the majority disciplines the
// returned leaves must access the root of T_v; under ReadOneWriteAll a
// read needs any returned copy, but a write must have updated every
// selected copy (a partial write would silently break later reads).
func (r *Result) Certifies(i int, returned []bool) bool {
	if returned == nil {
		return false
	}
	if r.disc != ReadOneWriteAll {
		return r.s.AccessedRoot(returned)
	}
	got := 0
	for _, on := range returned {
		if on {
			got++
		}
	}
	if r.reqs[i].Write {
		return got == len(r.Selected[i])
	}
	return got > 0
}

// Placement holds one request batch's flat per-copy tables. Entry
// r·q^k + leaf describes request r's copy at that leaf of its copy
// tree. Every table is allocated once per batch, so placing and
// selecting make O(K) allocations however many requests there are.
type Placement struct {
	s     *hmos.Scheme
	m     *mesh.Machine
	reqs  []Request
	qk    int
	masks []bool  // the request's current selection
	procs []int32 // processor storing the copy (its unresolved home)
	ranks []int32 // the copy's rank r1 in its level-1 page
	pages []int32 // level-i page index at offset (i−1)·len(masks)
	full  []bool  // all-live mask for requests without one
	cost  []int64 // SelectTargetSet scratch
}

// Place places every copy of every request with one walk of its copy
// tree, recording its processor, its level-1 rank and its page index at
// every level. Variables must be distinct across requests (the PRAM
// step semantics of the paper; use combining upstream for concurrent
// access). It panics on duplicate variables or out-of-range requests.
func Place(s *hmos.Scheme, m *mesh.Machine, reqs []Request) *Placement {
	validate(s, m.N, reqs)
	qk := s.Redundant
	size := len(reqs) * qk
	p := &Placement{
		s:     s,
		m:     m,
		reqs:  reqs,
		qk:    qk,
		masks: make([]bool, size),
		procs: make([]int32, size),
		ranks: make([]int32, size),
		pages: make([]int32, s.K*size),
		full:  make([]bool, qk),
		cost:  make([]int64, s.TargetSetScratch()),
	}
	for leaf := range p.full {
		p.full[leaf] = true
	}
	for r, rq := range reqs {
		lo := r * qk
		s.PlaceTree(rq.Var, p.procs[lo:lo+qk], p.ranks[lo:lo+qk], p.pages[lo:], size)
	}
	return p
}

// Homes returns the home processor of each of request r's q^k copies,
// indexed by leaf (before any remap). The slice aliases the placement.
func (p *Placement) Homes(r int) []int32 {
	return p.procs[r*p.qk : (r+1)*p.qk]
}

// Select picks every request's copies under discipline d among the
// available ones: avail[r] masks request r's live leaves, and a nil
// avail, or a nil mask for a request, means all q^k copies are live.
// Under the majority disciplines a request whose live leaves hold no
// target set of the discipline's level falls back to a minimal plain
// target set among them (culling then skips its per-level shrink, its
// set being minimal already, but still counts it toward page loads and
// the congestion marking). Requests with no acceptable set at all are
// reported in Result.Unservable with a nil selection. A placement may
// be selected from more than once.
func (p *Placement) Select(d Discipline, avail [][]bool) *Result {
	s := p.s
	res := &Result{
		Selected: make([][]SelectedCopy, len(p.reqs)),
		PageLoad: make([][]int, s.K+1),
		Bound:    make([]int, s.K+1),
		s:        s,
		disc:     d,
		reqs:     p.reqs,
	}
	for i := 1; i <= s.K; i++ {
		res.Bound[i] = capAtLevel(4, s.Redundant, p.m.N, i)
	}
	switch d {
	case Culled:
		p.cull(res, avail)
	case Unculled:
		p.local(res, avail, s.K)
	case Hardened:
		p.local(res, avail, 0)
	case ReadOneWriteAll:
		p.readOneWriteAll(res, avail)
	default:
		panic(fmt.Sprintf("culling: unknown discipline %d", d))
	}
	if d != Culled {
		for i := 1; i <= s.K; i++ {
			res.PageLoad[i] = p.loads(i)
		}
	}
	p.collect(res)
	return res
}

// cull runs CULLING over the available leaves.
func (p *Placement) cull(res *Result, avail [][]bool) {
	s, n, qk := p.s, p.m.N, p.qk

	// C^0: minimal level-0 target sets over the available leaves.
	// frozen[r]: the request's live leaves hold no level-0 set, only a
	// plain one — its mask is already minimal and skips the shrink.
	frozen := make([]bool, len(p.reqs))
	for r := range p.reqs {
		mask := p.masks[r*qk : (r+1)*qk]
		av := p.availOf(avail, r)
		if s.SelectTargetSet(0, av, nil, p.cost, mask) {
			continue
		}
		frozen[r] = true
		if !s.SelectTargetSet(s.K, av, nil, p.cost, mask) {
			res.Unservable = append(res.Unservable, r) // empty mask: contributes nothing
		}
	}

	marked := make([]bool, len(p.masks))
	seen := make([]int, s.PageCount(1)) // level-1 pages are the most numerous
	full := p.m.Full()
	for i := 1; i <= s.K; i++ {
		// Mark the first 2q^k·n^{1−1/2^i} copies of every level-i page.
		markFirst(p.masks, p.pagesAt(i), capAtLevel(2, qk, n, i), seen[:s.PageCount(i)], marked)

		// Shrink each request's mask to a minimal level-i target set,
		// preferring marked copies (the M_v^i / S_v^i split). Frozen
		// requests are already minimal plain sets and keep their mask.
		for r := range p.reqs {
			if frozen[r] {
				continue
			}
			mask := p.masks[r*qk : (r+1)*qk]
			if !s.SelectTargetSet(i, mask, marked[r*qk:(r+1)*qk], p.cost, mask) {
				// Cannot happen: the mask is a minimal level-(i-1)
				// target set, which always contains a level-i set.
				panic(fmt.Sprintf("culling: request %d lost its target set at level %d", r, i))
			}
		}

		// Record loads of ∪C^i per level-i page.
		res.PageLoad[i] = p.loads(i)

		// Charge the iteration: sort + rank + O(q^k) local extraction.
		res.Steps += route.SortCost(full, qk)
		res.Steps += 3*int64(full.W-1) + int64(full.H-1)
		res.Steps += int64(qk)
	}
}

// local picks, per request and without congestion control, a minimal
// level-`level` target set among the available leaves, falling back to
// a minimal plain set; requests with neither are Unservable.
func (p *Placement) local(res *Result, avail [][]bool, level int) {
	s, qk := p.s, p.qk
	for r := range p.reqs {
		mask := p.masks[r*qk : (r+1)*qk]
		av := p.availOf(avail, r)
		if s.SelectTargetSet(level, av, nil, p.cost, mask) {
			continue
		}
		if level == s.K || !s.SelectTargetSet(s.K, av, nil, p.cost, mask) {
			res.Unservable = append(res.Unservable, r)
		}
	}
}

// readOneWriteAll selects every live copy of a write and the first live
// copy of a read, scanning from leaf Var mod q^k; a request with no
// live copy is Unservable.
func (p *Placement) readOneWriteAll(res *Result, avail [][]bool) {
	qk := p.qk
	for r, rq := range p.reqs {
		mask := p.masks[r*qk : (r+1)*qk]
		av := p.availOf(avail, r)
		clear(mask)
		found := false
		for j := range qk {
			if leaf := (rq.Var + j) % qk; av[leaf] {
				mask[leaf], found = true, true
				if !rq.Write {
					break
				}
			}
		}
		if !found {
			res.Unservable = append(res.Unservable, r)
		}
	}
}

// markFirst marks the first limit selected copies of every page, in
// (page, request, leaf) order: the paper's "sort by destination page
// and rank". Copies are listed in (request, leaf) order, so a stable
// counting sort on the page index would produce exactly that order;
// only each copy's rank within its page matters, and the sort's
// counting pass alone yields it. seen (one counter per page) and marked
// are scratch, overwritten here.
func markFirst(masks []bool, pages []int32, limit int, seen []int, marked []bool) {
	clear(seen)
	clear(marked)
	for idx, on := range masks {
		if !on {
			continue
		}
		pg := pages[idx]
		if seen[pg] < limit {
			marked[idx] = true
		}
		seen[pg]++
	}
}

// validate panics on out-of-range or duplicate requests.
func validate(s *hmos.Scheme, n int, reqs []Request) {
	vars := make([]int, len(reqs))
	for i, r := range reqs {
		if r.Var < 0 || r.Var >= s.Vars() {
			panic(fmt.Sprintf("culling: variable %d out of range", r.Var))
		}
		if r.Origin < 0 || r.Origin >= n {
			panic(fmt.Sprintf("culling: origin %d out of range", r.Origin))
		}
		vars[i] = r.Var
	}
	slices.Sort(vars)
	for i := 1; i < len(vars); i++ {
		if vars[i] == vars[i-1] {
			panic(fmt.Sprintf("culling: duplicate variable %d in request set", vars[i]))
		}
	}
}

// availOf returns request r's availability mask (all live when the
// caller supplied none).
func (p *Placement) availOf(avail [][]bool, r int) []bool {
	if avail != nil && avail[r] != nil {
		return avail[r]
	}
	return p.full
}

// pagesAt returns the level-i page index of every copy.
func (p *Placement) pagesAt(i int) []int32 {
	size := len(p.masks)
	return p.pages[(i-1)*size : i*size]
}

// loads counts the selected copies per level-i page.
func (p *Placement) loads(i int) []int {
	loads := make([]int, p.s.PageCount(i))
	pages := p.pagesAt(i)
	for idx, on := range p.masks {
		if on {
			loads[pages[idx]]++
		}
	}
	return loads
}

// collect turns the final masks into Result.Selected, every request's
// copies a window of one flat slice (nil for an empty selection).
func (p *Placement) collect(res *Result) {
	total := 0
	for _, on := range p.masks {
		if on {
			total++
		}
	}
	flat := make([]SelectedCopy, 0, total)
	for r := range res.Selected {
		start := len(flat)
		for leaf, on := range p.masks[r*p.qk : (r+1)*p.qk] {
			if on {
				idx := r*p.qk + leaf
				flat = append(flat, SelectedCopy{Leaf: leaf, Proc: int(p.procs[idx]), Page: p.pages[idx], Rank: p.ranks[idx]})
			}
		}
		if len(flat) > start {
			res.Selected[r] = flat[start:len(flat):len(flat)]
		}
	}
}

// capAtLevel returns ⌈c·q^k·n^{1−1/2^i}⌉.
func capAtLevel(c, qk, n, i int) int {
	exp := 1.0 - 1.0/math.Pow(2, float64(i))
	return int(math.Ceil(float64(c) * float64(qk) * math.Pow(float64(n), exp)))
}
