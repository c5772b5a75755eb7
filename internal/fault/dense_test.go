package fault

import "testing"

// TestEdgeBitRoundTrip enumerates every mesh and wrap edge and checks
// that edgeBit is symmetric, injective on undirected edges and inverted
// by bitEdge, and that non-edges map to -1. At side 2 a row's mesh edge
// and wrap edge join the same pair and must share one bit.
func TestEdgeBitRoundTrip(t *testing.T) {
	for _, side := range []int{1, 2, 3, 27} {
		n := side * side
		owner := map[int][2]int{}
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				b := edgeBit(side, p, q)
				if !adjacentIn(side, p, q) {
					if b != -1 {
						t.Fatalf("side %d: non-edge %d-%d got bit %d", side, p, q, b)
					}
					continue
				}
				if b < 0 || b >= 2*n {
					t.Fatalf("side %d: edge %d-%d got bit %d outside [0,%d)", side, p, q, b, 2*n)
				}
				if b2 := edgeBit(side, q, p); b2 != b {
					t.Fatalf("side %d: edge %d-%d bit %d, reversed %d", side, p, q, b, b2)
				}
				lo, hi := min(p, q), max(p, q)
				if a, c := bitEdge(side, b); a != lo || c != hi {
					t.Fatalf("side %d: bitEdge(%d) = %d-%d, want %d-%d", side, b, a, c, lo, hi)
				}
				if prev, ok := owner[b]; ok && prev != [2]int{lo, hi} {
					t.Fatalf("side %d: bit %d shared by %v and %d-%d", side, b, prev, lo, hi)
				}
				owner[b] = [2]int{lo, hi}
			}
		}
		want := 2 * n // a torus has two edges per node...
		switch side {
		case 1:
			want = 0 // ...except a single node, which has none,
		case 2:
			want = 4 // ...and side 2, where wrap and mesh edges coincide
		}
		if len(owner) != want {
			t.Fatalf("side %d: %d distinct edge bits, want %d", side, len(owner), want)
		}
	}
	if edgeBit(2, 0, 1) != edgeBit(2, 1, 0) || edgeBit(2, 0, 2) != edgeBit(2, 2, 0) {
		t.Fatal("side 2: a mesh edge and its wrap twin map to different bits")
	}
}

// queryHash hashes LinkUp and LinkDelay over every node's four (wrap)
// neighbors.
func queryHash(m *Map, side int) uint64 {
	h := uint64(1469598103934665603)
	for p := 0; p < side*side; p++ {
		r, c := p/side, p%side
		for _, q := range []int{r*side + (c+1)%side, ((r+1)%side)*side + c, r*side + (c+side-1)%side, ((r+side-1)%side)*side + c} {
			x := uint64(m.LinkDelay(p, q))
			if m.LinkUp(p, q) {
				x |= 1 << 8
			}
			h = (h ^ x) * 1099511628211
		}
	}
	return h
}

// TestParseGoldens pins String, Counts, MaxDelay and every link query
// of parsed maps to the values the sparse link maps produced before
// link faults became dense.
func TestParseGoldens(t *testing.T) {
	for _, g := range []struct {
		side   int
		spec   string
		str    string
		counts [4]int
		maxd   int
		qh     uint64
	}{
		{9, "node:3,17;link:0-1", "2 dead nodes, 1 dead links, 0 dead modules, 0 slow links", [4]int{2, 1, 0, 0}, 1, 0x28404b7f2a11fe17},
		{9, "link:5-6,9-18;slow:7-8x4;module:40", "0 dead nodes, 2 dead links, 1 dead modules, 1 slow links", [4]int{0, 2, 1, 1}, 4, 0x2e4addac0bd475fb},
		{9, "slow:0-8x3;link:0-72", "0 dead nodes, 1 dead links, 0 dead modules, 1 slow links", [4]int{0, 1, 0, 1}, 3, 0xa796617f9c29588b},
		{2, "link:0-1;slow:2-3x5", "0 dead nodes, 1 dead links, 0 dead modules, 1 slow links", [4]int{0, 1, 0, 1}, 5, 0x36735e4f72a47ad3},
		{3, "link:0-2;slow:0-6x3;link:2-0", "0 dead nodes, 1 dead links, 0 dead modules, 1 slow links", [4]int{0, 1, 0, 1}, 3, 0x23ae7ce01f885f3},
		{27, "rand:link=0.05,module=0.02,node=0.01,slow=0.1,factor=4,seed=7", "8 dead nodes, 79 dead links, 18 dead modules, 120 slow links", [4]int{8, 79, 18, 120}, 4, 0xf5f12167691a092b},
		{27, "rand:link=0.2,slow=0.3,seed=3;link:0-1;slow:1-2x9", "0 dead nodes, 279 dead links, 0 dead modules, 332 slow links", [4]int{0, 279, 0, 332}, 9, 0xf1f2d5774d7857a7},
		{81, "rand:module=0.02,seed=3", "0 dead nodes, 0 dead links, 132 dead modules, 0 slow links", [4]int{0, 0, 132, 0}, 1, 0xa5be4fe04480d857},
		{9, "rand:link=0.5,slow=0.5,factor=6,seed=11;node:40", "1 dead nodes, 71 dead links, 0 dead modules, 39 slow links", [4]int{1, 71, 0, 39}, 6, 0xe8329905e3fc80eb},
	} {
		m, err := Parse(g.side, g.spec)
		if err != nil {
			t.Fatalf("Parse(%d, %q): %v", g.side, g.spec, err)
		}
		n, l, mo, s := m.Counts()
		if got := m.String(); got != g.str {
			t.Errorf("%q: String() = %q, want %q", g.spec, got, g.str)
		}
		if got := [4]int{n, l, mo, s}; got != g.counts {
			t.Errorf("%q: Counts() = %v, want %v", g.spec, got, g.counts)
		}
		if got := m.MaxDelay(); got != g.maxd {
			t.Errorf("%q: MaxDelay() = %d, want %d", g.spec, got, g.maxd)
		}
		if got := queryHash(m, g.side); got != g.qh {
			t.Errorf("%q: link query hash %#x, want %#x", g.spec, got, g.qh)
		}
		c := m.Clone()
		if c.String() != m.String() || queryHash(c, g.side) != g.qh || c.MaxDelay() != g.maxd {
			t.Errorf("%q: Clone differs from its source", g.spec)
		}
	}
}

// TestCloneAllocsModuleOnly guards the lazy link-fault sets: cloning a
// map without link faults allocates only the map and its two node
// bitsets (5 allocations; the sparse link maps this replaced cost 7).
func TestCloneAllocsModuleOnly(t *testing.T) {
	m := NewMap(27).KillModule(3).KillModule(100).KillNode(5)
	if got := testing.AllocsPerRun(100, func() { _ = m.Clone() }); got > 5 {
		t.Fatalf("Clone of a map without link faults: %v allocations, want ≤ 5", got)
	}
}

// TestMemBytesCountsLinkSets checks that MemBytes grows by the dense
// link sets when the first link fault allocates them, and that a
// revive or heal on a map without link faults allocates nothing.
func TestMemBytesCountsLinkSets(t *testing.T) {
	m := NewMap(27).KillModule(3)
	base := m.MemBytes()
	m.Apply(Event{Kind: EvReviveLink, P: 0, Q: 1})
	m.Apply(Event{Kind: EvHealLink, P: 0, Q: 1})
	if m.deadLink != nil || m.MemBytes() != base {
		t.Fatal("revive/heal on a map without link faults allocated the link sets")
	}
	m.KillLink(0, 1)
	sets := 2 * (int64(2*27*27+63) / 64 * 8)
	if got := m.MemBytes() - base; got < sets {
		t.Fatalf("MemBytes grew by %d after the first link fault, want ≥ %d", got, sets)
	}
	withDead := m.MemBytes()
	m.SlowLink(1, 2, 3)
	if m.MemBytes() <= withDead {
		t.Fatal("MemBytes must count slow-factor entries")
	}
}
