// Package hmos implements the Hierarchical Memory Organization Scheme
// of §3.1: k levels of logical modules connected by BIBD subgraphs,
// the q-ary copy trees T_v, the level-i page identities, and the
// physical mapping of pages onto nested submesh tessellations (§3.3).
//
// Sizes follow the paper exactly: the shared memory has
// M = f(d) = q^{d-1}(q^d−1)/(q−1) variables (the level-0 modules),
// |U_i| = q^{d_i} level-i modules with d_1 = d and
// d_{i+1} = ⌈d_i/2⌉ + 1, and each level-(i−1) module is replicated into
// q pages stored in distinct level-i modules according to a balanced
// subgraph of a (q^{d_i}, q)-BIBD. Every variable therefore has q^k
// copies, the leaves of its copy tree T_v, addressed by the vector of
// edge indices (x_1, …, x_k) ∈ GF(q)^k.
//
// Because level 1 uses the full BIBD (|U_0| = f(d_1) exactly) and for
// i ≥ 2 the ratio q·m_{i−1}/m_i = q^{d_{i−1}−d_i+1} is a power of q,
// every module of a level has exactly the same number of pages, so the
// tessellations of the mesh are exact and all page submeshes of a level
// are congruent.
//
// The memory map is implicit: locating any copy is O(k) arithmetic on
// the BIBD adjacency (see internal/bibd), which realizes the paper's
// claim of constant internal storage per processor.
package hmos

import (
	"fmt"
	"math"

	"meshpram/internal/bibd"
	"meshpram/internal/gf"
	"meshpram/internal/mesh"
)

// Params selects an HMOS instance.
type Params struct {
	Side int // mesh side; n = Side²
	Q    int // prime power ≥ 3 (copies per replication step)
	D    int // d_1: memory size is f(Q, D) variables
	K    int // number of levels, ≥ 1
}

// Scheme is a constructed HMOS bound to a mesh geometry.
type Scheme struct {
	Params
	F    *gf.Field
	N    int // processors
	mach *mesh.Machine

	M  int   // number of variables = f(Q, D)
	Ds []int // Ds[i] = d_{i+1} for i = 0..K-1 (Ds[0] = D)

	// Graphs[i] is the bipartite graph between U_i and U_{i+1}
	// (i = 0..K-1): a balanced subgraph of a (q^{d_{i+1}}, q)-BIBD with
	// ModCount[i] inputs.
	Graphs []*bibd.Design

	ModCount  []int // ModCount[i] = m_i = |U_i|, i = 0..K
	PagesPer  []int // PagesPer[i] = p_i for i = 1..K (index 0 unused): level-(i-1) pages per level-i module
	Redundant int   // q^K copies per variable

	// pageCount[i], i = 1..K, is the number of level-i pages — the
	// tessellations themselves are implicit: PageRegion recomputes any
	// page's submesh arithmetically from topTess, the only cached level
	// (the level-K tessellation, ModCount[K] regions).
	pageCount []int
	topTess   []mesh.Region

	// T[i] = processors per level-i submesh (paper's t_i), i = 1..K.
	T []int

	qPowK []int // q^0..q^K
}

// New constructs and validates an HMOS instance over the given mesh.
func New(p Params) (*Scheme, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("hmos: k=%d must be ≥ 1", p.K)
	}
	if p.D < 2 {
		return nil, fmt.Errorf("hmos: d=%d must be ≥ 2", p.D)
	}
	if p.Q < 3 {
		return nil, fmt.Errorf("hmos: q=%d must be ≥ 3 (majority quorum needs ⌊q/2⌋+2 ≤ q)", p.Q)
	}
	f, err := gf.New(p.Q)
	if err != nil {
		return nil, fmt.Errorf("hmos: %w", err)
	}
	m, err := mesh.New(p.Side)
	if err != nil {
		return nil, fmt.Errorf("hmos: %w", err)
	}
	// The level-1 pages number q^(d+k−1) (the per-level page counts
	// below telescope) and must tile n. Checking that first keeps an
	// oversized d or k from overflowing f(q, d) or sizing allocations.
	pages := 1
	for i := 1; i < p.D && pages <= m.N; i++ {
		pages *= p.Q
	}
	for i := 0; i < p.K && pages <= m.N; i++ {
		pages *= p.Q
	}
	if pages > m.N || m.N%pages != 0 {
		return nil, fmt.Errorf("hmos: the q^(d+k-1) level-1 pages (q=%d, d=%d, k=%d) do not tile n=%d",
			p.Q, p.D, p.K, m.N)
	}
	s := &Scheme{Params: p, F: f, N: m.N, mach: m}

	// Level dimensions d_1..d_k and module counts m_0..m_k.
	s.Ds = make([]int, p.K)
	s.Ds[0] = p.D
	for i := 1; i < p.K; i++ {
		s.Ds[i] = (s.Ds[i-1]+1)/2 + 1
	}
	s.M = bibd.F(p.Q, p.D)
	s.ModCount = make([]int, p.K+1)
	s.ModCount[0] = s.M
	for i := 1; i <= p.K; i++ {
		s.ModCount[i] = ipow(p.Q, s.Ds[i-1])
	}

	// Inter-level graphs.
	s.Graphs = make([]*bibd.Design, p.K)
	for i := 0; i < p.K; i++ {
		g, err := bibd.NewSub(f, s.Ds[i], s.ModCount[i])
		if err != nil {
			return nil, fmt.Errorf("hmos: level %d graph: %w", i+1, err)
		}
		s.Graphs[i] = g
	}

	// Pages per module. Uniform by construction; verify.
	s.PagesPer = make([]int, p.K+1)
	for i := 1; i <= p.K; i++ {
		lo := p.Q * s.ModCount[i-1] / s.ModCount[i]
		if p.Q*s.ModCount[i-1]%s.ModCount[i] != 0 {
			return nil, fmt.Errorf("hmos: level %d pages per module %d/%d not integral",
				i, p.Q*s.ModCount[i-1], s.ModCount[i])
		}
		s.PagesPer[i] = lo
	}

	// Tessellations. The level-i page count must be a power of q
	// dividing the mesh; only the level-K regions are materialized
	// (topTess), every lower level is recomputed on demand by
	// PageRegion.
	s.pageCount = make([]int, p.K+1)
	s.T = make([]int, p.K+1)
	full := m.Full()
	parts := 1
	for i := p.K; i >= 1; i-- {
		if i == p.K {
			parts = s.ModCount[p.K]
		} else {
			parts *= s.PagesPer[i+1]
		}
		if err := splitCheck(full.H, full.W, p.Q, parts); err != nil {
			return nil, fmt.Errorf("hmos: level-%d tessellation (%d parts on %d×%d mesh): %w",
				i, parts, p.Side, p.Side, err)
		}
		if s.N%parts != 0 {
			return nil, fmt.Errorf("hmos: %d level-%d pages do not divide n=%d", parts, i, s.N)
		}
		s.pageCount[i] = parts
		s.T[i] = s.N / parts
	}
	topTess, err := full.SplitQ(p.Q, s.ModCount[p.K])
	if err != nil {
		return nil, fmt.Errorf("hmos: level-%d tessellation: %w", p.K, err)
	}
	s.topTess = topTess
	if s.T[1] < 1 {
		return nil, fmt.Errorf("hmos: t_1 = %d < 1 (memory too large for this mesh: α > 2(1-(k-1)/log_q n))", s.T[1])
	}

	s.qPowK = make([]int, p.K+1)
	s.qPowK[0] = 1
	for i := 1; i <= p.K; i++ {
		s.qPowK[i] = s.qPowK[i-1] * p.Q
	}
	s.Redundant = s.qPowK[p.K]
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(p Params) *Scheme {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Vars returns the number of shared-memory variables M.
func (s *Scheme) Vars() int { return s.M }

// Alpha returns log(M)/log(n), the memory-size exponent.
func (s *Scheme) Alpha() float64 {
	return logf(float64(s.M)) / logf(float64(s.N))
}

// CopiesPerVar returns q^k.
func (s *Scheme) CopiesPerVar() int { return s.Redundant }

// MapBytes returns the storage a processor needs to evaluate the whole
// memory map: the scheme parameters plus four integers per level
// (d_i, m_i, p_i, t_i) — independent of the memory size M, which is the
// constructivity pay-off measured by experiment E10.
func (s *Scheme) MapBytes() int64 { return int64(8 * (6 + 4*s.K)) }

// Copy identifies one replica of a variable, fully located.
type Copy struct {
	Var  int // variable index
	Leaf int // leaf index in T_v: Σ x_j · q^{k-j}, x_1 most significant

	// Path[i] = l_{i+1}: the level-(i+1) module on the leaf-to-root
	// path, i = 0..K-1.
	Path []int

	Proc int   // processor storing the copy
	Slot int64 // globally unique copy id: Var·q^k + Leaf
}

// CopyAt locates the copy of variable v at the given leaf of T_v.
func (s *Scheme) CopyAt(v, leaf int) Copy {
	path := make([]int, s.K)
	_, _, proc := s.place(v, leaf, path)
	return Copy{Var: v, Leaf: leaf, Path: path, Proc: proc, Slot: int64(v)*int64(s.Redundant) + int64(leaf)}
}

// place walks T_v from variable v down to the copy at one leaf, behind
// CopyAt and SlotPlace: it fills path (path[i] = l_{i+1}, len(path) ≥ K)
// and returns the level-1 page holding the copy, the copy's rank r1
// among the page's p_1 copies, and the storing processor — copy slot r1
// sits at snake position r1 mod t_1 of the page's submesh, so copies
// spread evenly over the page's processors (§3.3). PlaceTree places all
// q^k leaves of a variable in one walk; place is its single-leaf oracle.
func (s *Scheme) place(v, leaf int, path []int) (page, r1, proc int) {
	if v < 0 || v >= s.M {
		panic(fmt.Sprintf("hmos: variable %d out of range [0,%d)", v, s.M))
	}
	if leaf < 0 || leaf >= s.Redundant {
		panic(fmt.Sprintf("hmos: leaf %d out of range [0,%d)", leaf, s.Redundant))
	}
	cur := v
	for i := 0; i < s.K; i++ {
		h, a, b := s.Graphs[i].Split(cur)
		xi := (leaf / s.qPowK[s.K-1-i]) % s.Q
		cur = s.Graphs[i].OutputAt(h, a, b, xi)
		path[i] = cur
	}
	page = s.PageIndex(1, path)
	r1 = s.Graphs[0].RankOfInput(path[0], v)
	proc = s.PageRegion(1, page).ProcAtSnake(s.mach, r1%s.T[1])
	return page, r1, proc
}

// PlaceTree places every copy of variable v in one depth-first walk of
// T_v. For each leaf it writes the storing processor to procs[leaf],
// the copy's rank r1 in its level-1 page to ranks[leaf], and its
// level-i page index to pages[(i−1)·stride+leaf] for i = 1 … K; ranks
// and pages may be nil. The leaves share their path prefixes, so the
// walk splits each module on it once and reads the module's rank among
// its parent's inputs off that split (bibd.Design.RankOf): q + q² + … +
// q^k output evaluations per variable instead of K·q^k, and no
// adjacency lookups. Every entry equals place and PageIndex for the
// same leaf (TestPlaceTreeMatchesPlace).
func (s *Scheme) PlaceTree(v int, procs, ranks, pages []int32, stride int) {
	if v < 0 || v >= s.M {
		panic(fmt.Sprintf("hmos: variable %d out of range [0,%d)", v, s.M))
	}
	K, q := s.K, s.Q
	// Per depth i < K: the split (h, a, b) of the module at depth i (v
	// at depth 0, l_i below), its edge digit x_i, and rk[i], the
	// module's rank among its parent's inputs (i ≥ 1).
	var buf [5 * 8]int
	w := buf[:]
	if 5*K > len(buf) {
		w = make([]int, 5*K)
	}
	hs, as, bs, xs, rk := w[:K], w[K:2*K], w[2*K:3*K], w[3*K:4*K], w[4*K:5*K]
	hs[0], as[0], bs[0] = s.Graphs[0].Split(v)
	r1 := s.Graphs[0].RankOf(hs[0], bs[0])
	snake := r1 % s.T[1]
	top := 0 // l_K, the level-K module (= the level-K page)
	for leaf, from := 0, 0; leaf < s.Redundant; leaf++ {
		// Descend from the shallowest depth whose edge digit changed.
		for i := from; i < K; i++ {
			out := s.Graphs[i].OutputAt(hs[i], as[i], bs[i], xs[i])
			if i+1 == K {
				top = out
				break
			}
			g := s.Graphs[i+1]
			hs[i+1], as[i+1], bs[i+1] = g.Split(out)
			rk[i+1] = g.RankOf(hs[i+1], bs[i+1])
		}
		// The PageIndex recurrence, level K down to 1.
		page := top
		if pages != nil {
			pages[(K-1)*stride+leaf] = int32(page)
		}
		for lev := K - 1; lev >= 1; lev-- {
			page = page*s.PagesPer[lev+1] + rk[lev]
			if pages != nil {
				pages[(lev-1)*stride+leaf] = int32(page)
			}
		}
		procs[leaf] = int32(s.PageRegion(1, page).ProcAtSnake(s.mach, snake))
		if ranks != nil {
			ranks[leaf] = int32(r1)
		}
		// Advance the edge digits (x_1 most significant) like an odometer.
		from = K - 1
		for from > 0 && xs[from] == q-1 {
			xs[from] = 0
			from--
		}
		xs[from]++
	}
}

// Copies returns all q^k copies of variable v, appended to dst.
func (s *Scheme) Copies(v int, dst []Copy) []Copy {
	for leaf := 0; leaf < s.Redundant; leaf++ {
		dst = append(dst, s.CopyAt(v, leaf))
	}
	return dst
}

// PageIndex returns the index (into the level-`level` tessellation) of
// the page holding a copy with the given path, for 1 ≤ level ≤ K. The
// index composes the canonical SplitQ child digits: the level-k module
// id first, then, at each level lev below k, the rank of module
// path[lev-1] among the inputs of its parent path[lev] in the
// inter-level graph Graphs[lev] — exactly the order in which SplitQ
// enumerates nested subregions, so PageRegion(level,
// PageIndex(level, path)) is the page's submesh.
func (s *Scheme) PageIndex(level int, path []int) int {
	if level < 1 || level > s.K {
		panic(fmt.Sprintf("hmos: level %d out of range [1,%d]", level, s.K))
	}
	idx := path[s.K-1] // level-k module id
	for lev := s.K - 1; lev >= level; lev-- {
		child := s.Graphs[lev].RankOfInput(path[lev], path[lev-1])
		idx = idx*s.PagesPer[lev+1] + child
	}
	return idx
}

// PageCount returns the number of level-`level` pages, 1 ≤ level ≤ K.
func (s *Scheme) PageCount(level int) int {
	if level < 1 || level > s.K {
		panic(fmt.Sprintf("hmos: level %d out of range [1,%d]", level, s.K))
	}
	return s.pageCount[level]
}

// PageRegion returns the submesh of level-`level` page idx without
// materializing the tessellation: the page index's leading digits pick
// a cached level-K region (topTess), the remaining digits descend into
// it by SubRegionAt. Nested SplitQ tessellations refine digit by
// digit, so this equals SplitQ(q, PageCount(level))[idx].
func (s *Scheme) PageRegion(level, idx int) mesh.Region {
	if level < 1 || level > s.K {
		panic(fmt.Sprintf("hmos: level %d out of range [1,%d]", level, s.K))
	}
	per := s.pageCount[level] / s.ModCount[s.K]
	return s.topTess[idx/per].SubRegionAt(s.Q, per, idx%per)
}

// Mesh returns the machine geometry the scheme is bound to. The
// returned machine is shared; callers should not charge steps to it
// (create their own mesh.Machine for accounting).
func (s *Scheme) Mesh() *mesh.Machine { return s.mach }

// SlotPlace locates copy slot id (= Var·q^k + Leaf) without building a
// Copy: the level-1 page holding it, its rank r1 among the page's p_1
// copies, and the storing processor — O(k) arithmetic, no allocation
// for k ≤ 8.
func (s *Scheme) SlotPlace(slot int64) (page, r1, proc int) {
	var pbuf [8]int
	path := pbuf[:]
	if s.K > len(pbuf) {
		path = make([]int, s.K)
	}
	return s.place(int(slot/int64(s.Redundant)), int(slot%int64(s.Redundant)), path)
}

// MemBytes returns the resident heap bytes of the scheme's tables —
// all O(1) in n (the constructivity pay-off): the cached level-K
// tessellation plus the per-level parameter slices. The shared mesh
// machine is excluded (it is O(1) itself and owned by the caller).
func (s *Scheme) MemBytes() int64 {
	b := int64(len(s.topTess)) * int64(4*8) // 4 ints per Region
	for _, sl := range [][]int{s.Ds, s.ModCount, s.PagesPer, s.pageCount, s.T, s.qPowK} {
		b += int64(len(sl)) * 8
	}
	b += int64(len(s.Graphs)) * int64(8*8) // Design headers (qPowers ≤ D+1 ints)
	return b
}

// splitCheck mirrors SplitQ's validation on dimensions alone: parts
// must be a power of q, and the longest-side-first recursion must
// divide exactly at every level. All children of one split are
// congruent, so checking a single descent chain checks the whole
// tessellation.
func splitCheck(h, w, q, parts int) error {
	if parts < 1 {
		return fmt.Errorf("mesh: parts=%d must be ≥ 1", parts)
	}
	for f := parts; f > 1; f /= q {
		if f%q != 0 {
			return fmt.Errorf("mesh: parts=%d is not a power of q=%d", parts, q)
		}
		if h >= w {
			if h%q != 0 {
				return fmt.Errorf("mesh: region height %d not divisible by %d", h, q)
			}
			h /= q
		} else {
			if w%q != 0 {
				return fmt.Errorf("mesh: region width %d not divisible by %d", w, q)
			}
			w /= q
		}
	}
	return nil
}

func ipow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

func logf(x float64) float64 { return math.Log(x) }
