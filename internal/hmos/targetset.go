package hmos

import "fmt"

// Copy-tree quorum logic (Definition 2 and §3.2).
//
// The copies of a variable form a complete q-ary tree T_v of k+1
// levels: the root (level 0) is the variable, leaves (level k) are the
// copies. A leaf is accessed when its copy is reached; an internal node
// is accessed when a majority (⌊q/2⌋+1) of its children is accessed.
// CULLING works with the stronger notion of *extensive access at level
// i*: internal nodes at tree levels ≥ i require ⌊q/2⌋+2 accessed
// children, nodes at levels < i the plain majority. A level-i target
// set is a leaf set granting the root extensive access at level i; a
// level-k target set is a plain target set.
//
// Any two plain target sets intersect (2(⌊q/2⌋+1) > q at every node, by
// induction), which is what makes timestamped majority reads see the
// latest write.

// Majority returns ⌊q/2⌋+1.
func Majority(q int) int { return q/2 + 1 }

// Extensive returns ⌊q/2⌋+2 (requires q ≥ 3 to be ≤ q).
func Extensive(q int) int { return q/2 + 2 }

// threshold returns the child quorum of an internal node at tree level
// j for level-i target sets.
func threshold(q, i, j int) int {
	if j < i {
		return Majority(q)
	}
	return Extensive(q)
}

// MinTargetSetSize returns the size of a minimal level-i target set:
// Majority^i · Extensive^(k−i) leaves.
func MinTargetSetSize(q, k, i int) int {
	n := 1
	for j := 0; j < k; j++ {
		n *= threshold(q, i, j)
	}
	return n
}

const (
	inf    = int64(1) << 60
	picked = int64(1) << 62 // flag on a cost entry: the node is in the selection
)

// TargetSetScratch returns the length of the cost buffer SelectTargetSet
// needs: one entry per node of T_v, Σ_{j=0..k} q^j.
func (s *Scheme) TargetSetScratch() int {
	n := 0
	for _, p := range s.qPowK {
		n += p
	}
	return n
}

// SelectTargetSet extracts a minimal level-i target set for a variable
// from the available leaves, preferring the leaves marked preferred
// (CULLING's M_v^i): among all minimal level-i target sets contained in
// avail it selects one using the fewest non-preferred leaves. preferred
// may be nil (no preference). It reports false, with sel all false, if
// avail contains no level-i target set.
//
// avail, preferred and the output sel are leaf masks of length q^k; sel
// may alias avail or preferred. cost is caller scratch of at least
// TargetSetScratch() entries, so a selection allocates nothing.
//
// The DP runs over cost laid out level by level: the q^j nodes of tree
// level j start at offset Σ_{j'<j} q^{j'}, and node b's children are
// nodes b·q … b·q+q−1 of level j+1 (leaf b of level k is leaf index b).
// A bottom-up pass sets every node's cost to the sum of its t cheapest
// children (t = the node's quorum), inf when fewer than t are
// reachable; a top-down pass then flags the t cheapest children of each
// flagged node, reusing those costs, ties going to the lower index.
func (s *Scheme) SelectTargetSet(i int, avail, preferred []bool, cost []int64, sel []bool) bool {
	q, k := s.Q, s.K
	if len(avail) != s.Redundant || len(sel) != s.Redundant {
		panic(fmt.Sprintf("hmos: masks have lengths %d and %d, want %d", len(avail), len(sel), s.Redundant))
	}
	n := s.TargetSetScratch()
	if len(cost) < n {
		panic(fmt.Sprintf("hmos: cost scratch has length %d, want %d", len(cost), n))
	}
	off := n - s.Redundant // offset of the leaf level, then of level j+1
	leaves := cost[off:n]
	for b, on := range avail {
		switch {
		case !on:
			leaves[b] = inf
		case preferred != nil && preferred[b]:
			leaves[b] = 0
		default:
			leaves[b] = 1
		}
	}
	for j := k - 1; j >= 0; j-- {
		lo := off - s.qPowK[j]
		t := threshold(q, i, j)
		for b := 0; b < s.qPowK[j]; b++ {
			ch := cost[off+b*q : off+b*q+q]
			cost[lo+b] = pickCheapest(ch, t)
			for c := range ch {
				ch[c] &^= picked
			}
		}
		off = lo
	}
	if cost[0] >= inf {
		clear(sel)
		return false
	}
	cost[0] |= picked
	off = 0
	for j := 0; j < k; j++ {
		next := off + s.qPowK[j]
		t := threshold(q, i, j)
		for b := 0; b < s.qPowK[j]; b++ {
			if cost[off+b]&picked != 0 {
				pickCheapest(cost[next+b*q:next+b*q+q], t)
			}
		}
		off = next
	}
	for b := range sel {
		sel[b] = cost[off+b]&picked != 0
	}
	return true
}

// pickCheapest flags the t cheapest finite, unflagged entries of ch
// (ties to the lower index) and returns their sum, or inf if fewer than
// t are finite.
func pickCheapest(ch []int64, t int) int64 {
	var sum int64
	for n := 0; n < t; n++ {
		best := -1
		for c, v := range ch {
			if v < inf && (best < 0 || v < ch[best]) {
				best = c
			}
		}
		if best < 0 {
			return inf
		}
		sum += ch[best]
		ch[best] |= picked
	}
	return sum
}

// IsTargetSet reports whether the leaf mask grants the root extensive
// access at level i (i = K for a plain target set).
func (s *Scheme) IsTargetSet(i int, sel []bool) bool {
	q, k := s.Q, s.K
	var ok func(j, base int) bool
	ok = func(j, base int) bool {
		if j == k {
			return sel[base]
		}
		span := s.qPowK[k-j-1]
		cnt := 0
		for c := 0; c < q; c++ {
			if ok(j+1, base+c*span) {
				cnt++
			}
		}
		return cnt >= threshold(q, i, j)
	}
	return ok(0, 0)
}

// AccessedRoot reports whether the leaf mask accesses the root under
// the plain majority rule of Definition 2 (equivalent to IsTargetSet
// with i = K).
func (s *Scheme) AccessedRoot(sel []bool) bool { return s.IsTargetSet(s.K, sel) }
