// Package culling implements the CULLING copy-selection procedure of
// §3.2: k iterations that progressively shrink, for every requested
// variable v, an initial minimal level-0 target set C_v^0 down to a
// plain (level-k) target set C_v, while capping the number of selected
// copies that fall into any level-i page at 2q^k·n^{1−1/2^i} marked
// copies — which yields the Theorem 3 invariant that no level-i page is
// addressed by more than 4q^k·n^{1−1/2^i} copies of ∪C_v^i.
//
// The procedure is executed by the n mesh processors via sorting and
// ranking of the ≤ n·q^k copy descriptors; its step cost is
// O(k·q^k·√n) (equation (2)), charged here as k iterations of one
// snake sort with block length q^k plus one prefix-sum pass.
package culling

import (
	"fmt"
	"math"
	"slices"

	"meshpram/internal/hmos"
	"meshpram/internal/mesh"
	"meshpram/internal/route"
)

// Request is one PRAM memory request: the mesh processor Origin wants
// to access variable Var.
type Request struct {
	Origin int
	Var    int
}

// SelectedCopy is a copy chosen by culling for the access protocol.
type SelectedCopy struct {
	Leaf int   // leaf index in T_v
	Proc int   // destination processor (the copy's unresolved home)
	Page int32 // level-1 page holding the copy
	Rank int32 // the copy's rank r1 among the page's p_1 copies
}

// Result carries the culling output and diagnostics.
type Result struct {
	// Selected[r] lists the copies of request r to access (a minimal
	// plain target set, C_v of the paper). nil for unservable requests
	// (see Unservable).
	Selected [][]SelectedCopy

	// PageLoad[i] (1 ≤ i ≤ K) maps level-i page index → number of
	// copies of ∪_v C_v^i in that page after iteration i.
	PageLoad [][]int

	// Bound[i] = ⌈4·q^k·n^{1−1/2^i}⌉, the Theorem 3 bound at level i.
	Bound []int

	// Steps is the charged mesh step cost (equation (2) shape).
	Steps int64

	// Unservable lists requests whose available copies (see RunAvail)
	// contain no plain target set: under the majority rule their
	// variable is unrecoverable and no packets are produced for them.
	Unservable []int
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

// Run executes CULLING for the given request set. Variables must be
// distinct across requests (the PRAM step semantics of the paper; use
// combining upstream for concurrent access). It panics on duplicate
// variables or out-of-range requests.
func Run(s *hmos.Scheme, m *mesh.Machine, reqs []Request) *Result {
	return RunAvail(s, m, reqs, nil)
}

// RunAvail is Run restricted to the available copies of each request:
// avail[r] masks request r's live leaves (a nil avail, or a nil mask
// for a request, means all q^k copies are available, making RunAvail
// with nil avail bit-identical to Run). Requests whose live leaves no
// longer contain a minimal level-0 target set fall back to a minimal
// plain target set among the live leaves — they skip the per-level
// shrink (their set is already minimal) but still count toward page
// loads and the congestion marking. Requests with no plain target set
// at all are reported in Result.Unservable with a nil selection.
//
// Every per-copy table — leaf masks, marks, processors, ranks, page
// indexes — is one flat slice indexed r·q^k + leaf, allocated once per
// call, so a call makes O(K) allocations however many requests it has.
func RunAvail(s *hmos.Scheme, m *mesh.Machine, reqs []Request, avail [][]bool) *Result {
	n := m.N
	qk := s.Redundant
	validate(s, n, reqs)
	b := locate(s, reqs, avail)
	res := newResult(s, n, len(reqs))

	// C^0: minimal level-0 target sets over the available leaves.
	// frozen[r]: the request's live leaves hold no level-0 set, only a
	// plain one — its mask is already minimal and skips the shrink.
	frozen := make([]bool, len(reqs))
	for r := range reqs {
		mask := b.masks[r*qk : (r+1)*qk]
		av := b.availOf(avail, r)
		if s.SelectTargetSet(0, av, nil, b.cost, mask) {
			continue
		}
		frozen[r] = true
		if !s.SelectTargetSet(s.K, av, nil, b.cost, mask) {
			res.Unservable = append(res.Unservable, r) // empty mask: contributes nothing
		}
	}

	marked := make([]bool, len(b.masks))
	seen := make([]int, s.PageCount(1)) // level-1 pages are the most numerous
	full := m.Full()
	for i := 1; i <= s.K; i++ {
		// Mark the first 2q^k·n^{1−1/2^i} copies of every level-i page.
		markFirst(b.masks, b.pagesAt(i), capAtLevel(2, qk, n, i), seen[:s.PageCount(i)], marked)

		// Shrink each request's mask to a minimal level-i target set,
		// preferring marked copies (the M_v^i / S_v^i split). Frozen
		// requests are already minimal plain sets and keep their mask.
		for r := range reqs {
			if frozen[r] {
				continue
			}
			mask := b.masks[r*qk : (r+1)*qk]
			if !s.SelectTargetSet(i, mask, marked[r*qk:(r+1)*qk], b.cost, mask) {
				// Cannot happen: the mask is a minimal level-(i-1)
				// target set, which always contains a level-i set.
				panic(fmt.Sprintf("culling: request %d lost its target set at level %d", r, i))
			}
		}

		// Record loads of ∪C^i per level-i page.
		res.PageLoad[i] = b.loads(i, s.PageCount(i))

		// Charge the iteration: sort + rank + O(q^k) local extraction.
		res.Steps += route.SortCost(full, qk)
		res.Steps += 3*int64(full.W-1) + int64(full.H-1)
		res.Steps += int64(qk)
	}
	b.collect(res)
	return res
}

// SelectWithoutCulling returns, for each request, a minimal plain
// target set chosen without congestion control — the ablation baseline
// for experiments E2/E12. Its step cost is zero (purely local choice).
func SelectWithoutCulling(s *hmos.Scheme, m *mesh.Machine, reqs []Request) *Result {
	return SelectWithoutCullingAvail(s, m, reqs, nil)
}

// SelectWithoutCullingAvail is SelectWithoutCulling restricted to the
// available copies (see RunAvail for the avail convention and the
// Unservable reporting).
func SelectWithoutCullingAvail(s *hmos.Scheme, m *mesh.Machine, reqs []Request, avail [][]bool) *Result {
	return selectLocal(s, m, reqs, avail, s.K)
}

// SelectHardenedAvail selects, for each request, a minimal *level-0*
// target set among the available copies: extensive quorums at every
// tree level, so the returned copy set keeps certifying root access
// even when isolated packets are lost on the round trip. This is the
// recovery path's selection — the pram retry layer re-executes a
// rolled-back step with it after an eager repair. Requests whose live
// leaves hold no level-0 set fall back to a minimal plain set (the
// same degraded fallback as RunAvail); requests with no plain set are
// Unservable. Like SelectWithoutCulling the choice is purely local and
// charges zero steps — the extra cost of a hardened step is its larger
// packet count, which the routing phases charge naturally.
func SelectHardenedAvail(s *hmos.Scheme, m *mesh.Machine, reqs []Request, avail [][]bool) *Result {
	return selectLocal(s, m, reqs, avail, 0)
}

// selectLocal picks, per request and without congestion control, a
// minimal level-`level` target set among the available leaves, falling
// back to a minimal plain set; requests with neither are Unservable.
// Page loads count the final selection at every level.
func selectLocal(s *hmos.Scheme, m *mesh.Machine, reqs []Request, avail [][]bool, level int) *Result {
	qk := s.Redundant
	b := locate(s, reqs, avail)
	res := newResult(s, m.N, len(reqs))
	for r := range reqs {
		mask := b.masks[r*qk : (r+1)*qk]
		av := b.availOf(avail, r)
		if s.SelectTargetSet(level, av, nil, b.cost, mask) {
			continue
		}
		if level == s.K || !s.SelectTargetSet(s.K, av, nil, b.cost, mask) {
			res.Unservable = append(res.Unservable, r)
		}
	}
	for i := 1; i <= s.K; i++ {
		res.PageLoad[i] = b.loads(i, s.PageCount(i))
	}
	b.collect(res)
	return res
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

// batch holds one call's flat per-copy tables. Entry r·q^k + leaf
// describes request r's copy at that leaf of its copy tree.
type batch struct {
	qk    int
	masks []bool  // the request's current selection
	procs []int32 // processor storing the copy
	ranks []int32 // the copy's rank r1 in its level-1 page
	pages []int32 // level-i page index at offset (i−1)·len(masks)
	full  []bool  // all-live mask for requests without one
	cost  []int64 // SelectTargetSet scratch
}

// locate places every copy of every request with one walk of its copy
// tree, recording its processor, its level-1 rank and its page index at
// every level.
func locate(s *hmos.Scheme, reqs []Request, avail [][]bool) *batch {
	qk := s.Redundant
	size := len(reqs) * qk
	b := &batch{
		qk:    qk,
		masks: make([]bool, size),
		procs: make([]int32, size),
		ranks: make([]int32, size),
		pages: make([]int32, s.K*size),
		full:  make([]bool, qk),
		cost:  make([]int64, s.TargetSetScratch()),
	}
	for leaf := range b.full {
		b.full[leaf] = true
	}
	for r, rq := range reqs {
		lo := r * qk
		s.PlaceTree(rq.Var, b.procs[lo:lo+qk], b.ranks[lo:lo+qk], b.pages[lo:], size)
	}
	return b
}

// availOf returns request r's availability mask (all live when the
// caller supplied none).
func (b *batch) availOf(avail [][]bool, r int) []bool {
	if avail != nil && avail[r] != nil {
		return avail[r]
	}
	return b.full
}

// pagesAt returns the level-i page index of every copy.
func (b *batch) pagesAt(i int) []int32 {
	size := len(b.masks)
	return b.pages[(i-1)*size : i*size]
}

// loads counts the selected copies per level-i page.
func (b *batch) loads(i, pageCount int) []int {
	loads := make([]int, pageCount)
	pages := b.pagesAt(i)
	for idx, on := range b.masks {
		if on {
			loads[pages[idx]]++
		}
	}
	return loads
}

// collect turns the final masks into Result.Selected, every request's
// copies a window of one flat slice (nil for an empty selection).
func (b *batch) collect(res *Result) {
	total := 0
	for _, on := range b.masks {
		if on {
			total++
		}
	}
	flat := make([]SelectedCopy, 0, total)
	for r := range res.Selected {
		start := len(flat)
		for leaf, on := range b.masks[r*b.qk : (r+1)*b.qk] {
			if on {
				idx := r*b.qk + leaf
				flat = append(flat, SelectedCopy{Leaf: leaf, Proc: int(b.procs[idx]), Page: b.pages[idx], Rank: b.ranks[idx]})
			}
		}
		if len(flat) > start {
			res.Selected[r] = flat[start:len(flat):len(flat)]
		}
	}
}

// newResult allocates a Result for count requests with the Theorem 3
// bounds filled in.
func newResult(s *hmos.Scheme, n, count int) *Result {
	res := &Result{
		Selected: make([][]SelectedCopy, count),
		PageLoad: make([][]int, s.K+1),
		Bound:    make([]int, s.K+1),
	}
	for i := 1; i <= s.K; i++ {
		res.Bound[i] = capAtLevel(4, s.Redundant, n, i)
	}
	return res
}

// capAtLevel returns ⌈c·q^k·n^{1−1/2^i}⌉.
func capAtLevel(c, qk, n, i int) int {
	exp := 1.0 - 1.0/math.Pow(2, float64(i))
	return int(math.Ceil(float64(c) * float64(qk) * math.Pow(float64(n), exp)))
}
