// Package bibd implements the explicit (q^d, q)-Balanced Incomplete
// Block Design of Pietracaprina–Preparata [PP93a] and the balanced
// subgraph selection from the Appendix of the paper.
//
// The design is a bipartite graph G = (W, U; E):
//
//   - U (the "outputs") is the set of d-dimensional vectors over GF(q),
//     |U| = q^d, encoded as integers whose base-q digits are the vector
//     coordinates;
//   - W (the "inputs") is the set of pairs of vectors
//     (a_{d-2}, …, a_h, 0, a_{h-1}, …, a_0)
//     (0, …, 0, 1, b_{h-1}, …, b_0)
//     denoted Φ(h, A, B) with h ∈ [0,d), A ∈ [0, q^{d-1}), B ∈ [0, q^h);
//     |W| = f(d) = q^{d-1}·(q^d−1)/(q−1);
//   - Φ(h, A, B) is adjacent to the q outputs
//     (a_{d-2}, …, a_h, x, a_{h-1}+x·b_{h-1}, …, a_0+x·b_0),  x ∈ GF(q).
//
// Definition 1 of the paper holds: every input has degree q and any two
// outputs share exactly one input (λ = 1). The balanced subgraph keeps
// the first m inputs in a canonical order (the V1 ∪ V2 ∪ V3 selection)
// so that every output keeps degree ⌊qm/q^d⌋ or ⌈qm/q^d⌉ (Theorem 5).
//
// Adjacency is implicit: input→outputs and (output, rank)→input are
// O(d) integer arithmetic, so a processor can hold the entire memory
// map in O(1) words — the constructivity claim that distinguishes this
// scheme from existence-only expander-based schemes.
package bibd

import (
	"fmt"

	"meshpram/internal/gf"
)

// Design is a balanced subgraph of a (q^d, q)-BIBD with M inputs kept.
// When M = f(d) it is the full BIBD. The zero value is not usable;
// construct with New or NewSub.
type Design struct {
	F *gf.Field
	Q int // field order (= input degree)
	D int // output vectors have D coordinates; |U| = Q^D

	M int // number of inputs kept, 1 ≤ M ≤ f(D)

	// Appendix decomposition m = q^{d-1}·((q^l−1)/(q−1) + w) + z.
	L, W, Z int

	qPowers []int // qPowers[i] = Q^i, i ≤ D
}

// F computes f(s) = q^{s-1}·(q^s−1)/(q−1), the input count of a full
// (q^s, q)-BIBD. It panics on overflow of int.
func F(q, s int) int {
	if s <= 0 {
		return 0
	}
	num := ipow(q, s-1)
	geo := (ipow(q, s) - 1) / (q - 1)
	return mulCheck(num, geo)
}

// New constructs the full (q^d, q)-BIBD over the given field.
func New(f *gf.Field, d int) (*Design, error) {
	return NewSub(f, d, F(f.Order(), d))
}

// NewSub constructs the balanced subgraph keeping the first m inputs
// (canonical order: blocks of increasing h; within a block, B-major,
// A-minor). This realizes the V1 ∪ V2 ∪ V3 selection of the Appendix.
func NewSub(f *gf.Field, d, m int) (*Design, error) {
	q := f.Order()
	if q < 2 {
		return nil, fmt.Errorf("bibd: field order %d too small", q)
	}
	if d < 1 {
		return nil, fmt.Errorf("bibd: dimension d=%d must be ≥ 1", d)
	}
	fd := F(q, d)
	if m < 1 || m > fd {
		return nil, fmt.Errorf("bibd: m=%d out of range [1, f(d)=%d]", m, fd)
	}
	g := &Design{F: f, Q: q, D: d, M: m}
	g.qPowers = make([]int, d+1)
	g.qPowers[0] = 1
	for i := 1; i <= d; i++ {
		g.qPowers[i] = g.qPowers[i-1] * q
	}
	// Decompose m = q^{d-1}·((q^l−1)/(q−1) + w) + z  with 0 ≤ w < q^l,
	// 0 ≤ z < q^{d-1}. l = d, w = z = 0 encodes the full design.
	qd1 := g.qPowers[d-1]
	rest := m
	l := 0
	for l < d && rest >= qd1*g.qPowers[l] {
		rest -= qd1 * g.qPowers[l]
		l++
	}
	g.L = l
	g.W = rest / qd1
	g.Z = rest % qd1
	return g, nil
}

// MustNew is New but panics on error.
func MustNew(f *gf.Field, d int) *Design {
	g, err := New(f, d)
	if err != nil {
		panic(err)
	}
	return g
}

// MustNewSub is NewSub but panics on error.
func MustNewSub(f *gf.Field, d, m int) *Design {
	g, err := NewSub(f, d, m)
	if err != nil {
		panic(err)
	}
	return g
}

// Inputs returns the number of inputs kept (m).
func (g *Design) Inputs() int { return g.M }

// Outputs returns |U| = q^d.
func (g *Design) Outputs() int { return g.qPowers[g.D] }

// blockOffset returns the index of the first input with the given h:
// q^{d-1}·(q^h−1)/(q−1).
func (g *Design) blockOffset(h int) int {
	return g.qPowers[g.D-1] * ((g.qPowers[h] - 1) / (g.Q - 1))
}

// Split decomposes an input index into its Φ(h, A, B) components.
func (g *Design) Split(input int) (h, a, b int) {
	if input < 0 || input >= g.M {
		panic(fmt.Sprintf("bibd: input %d out of range [0,%d)", input, g.M))
	}
	qd1 := g.qPowers[g.D-1]
	for h = 0; h < g.D; h++ {
		block := qd1 * g.qPowers[h]
		if input < block {
			break
		}
		input -= block
	}
	b = input / qd1
	a = input % qd1
	return h, a, b
}

// Join is the inverse of Split: index of Φ(h, A, B) in canonical order.
func (g *Design) Join(h, a, b int) int {
	return g.blockOffset(h) + b*g.qPowers[g.D-1] + a
}

// OutputAt returns the output adjacent to input Φ(h,a,b) along edge
// x ∈ GF(q): the vector (a_{d-2},…,a_h, x, a_{h-1}+x·b_{h-1},…,a_0+x·b_0).
func (g *Design) OutputAt(h, a, b, x int) int {
	f, q := g.F, g.Q
	u := 0
	// Digits j > h come from a's upper digits, shifted down by one.
	ahi := a / g.qPowers[h] // digits a_{d-2}..a_h
	u += ahi * g.qPowers[h+1]
	u += x * g.qPowers[h]
	// Digits j < h: a_j + x·b_j.
	alo := a % g.qPowers[h]
	for j := 0; j < h; j++ {
		aj := (alo / g.qPowers[j]) % q
		bj := (b / g.qPowers[j]) % q
		u += f.Add(aj, f.Mul(x, bj)) * g.qPowers[j]
	}
	return u
}

// OutputsOf returns the q outputs adjacent to the given input, in
// x-order (x = 0..q−1). The result is appended to dst, which may be nil.
func (g *Design) OutputsOf(input int, dst []int) []int {
	h, a, b := g.Split(input)
	for x := 0; x < g.Q; x++ {
		dst = append(dst, g.OutputAt(h, a, b, x))
	}
	return dst
}

// inputAt computes the unique A such that Φ(h, A, B) is adjacent to
// output u, for the given h and B (Theorem 5 proof), and returns the
// input's canonical index (which may be ≥ M, i.e. not selected).
func (g *Design) inputAt(u, h, b int) int {
	f, q := g.F, g.Q
	x := (u / g.qPowers[h]) % q
	// Upper digits of A: u_j for j > h, shifted up.
	ahi := u / g.qPowers[h+1]
	a := ahi * g.qPowers[h]
	// Lower digits: a_j = u_j − x·b_j.
	for j := 0; j < h; j++ {
		uj := (u / g.qPowers[j]) % q
		bj := (b / g.qPowers[j]) % q
		a += f.Sub(uj, f.Mul(x, bj)) * g.qPowers[j]
	}
	return g.Join(h, a, b)
}

// Degree returns the number of selected inputs adjacent to output u.
// By Theorem 5 this is ⌊qm/q^d⌋ or ⌈qm/q^d⌉.
func (g *Design) Degree(u int) int {
	deg := (g.qPowers[g.L] - 1) / (g.Q - 1) // V1 contribution
	deg += g.W                              // V2 contribution
	if g.Z > 0 && g.L < g.D && g.inputAt(u, g.L, g.W) < g.M {
		deg++ // V3 contribution
	}
	return deg
}

// InputAtRank returns the input of rank r (0-based) among the selected
// inputs adjacent to output u, ordered by (h, B) lexicographically.
func (g *Design) InputAtRank(u, r int) int {
	if r < 0 || r >= g.Degree(u) {
		panic(fmt.Sprintf("bibd: rank %d out of range [0,%d) for output %d", r, g.Degree(u), u))
	}
	// Find h: largest with (q^h−1)/(q−1) ≤ r.
	h := 0
	for h+1 <= g.D-1 && (g.qPowers[h+1]-1)/(g.Q-1) <= r {
		h++
	}
	b := r - (g.qPowers[h]-1)/(g.Q-1)
	return g.inputAt(u, h, b)
}

// RankOfInput returns the rank of a selected input v among the selected
// inputs adjacent to output u. It panics if v is not adjacent to u or
// not selected.
func (g *Design) RankOfInput(u, v int) int {
	h, a, b := g.Split(v)
	if g.inputAt(u, h, b) != v {
		panic(fmt.Sprintf("bibd: input %d not adjacent to output %d", v, u))
	}
	_ = a
	return g.RankOf(h, b)
}

// RankOf returns the rank of input Φ(h, A, B) among the selected inputs
// adjacent to any of its outputs: (q^h−1)/(q−1) + B. The rank does not
// depend on A or on which adjacent output is asked, so a caller that
// already split the input needs no adjacency lookup.
func (g *Design) RankOf(h, b int) int {
	return (g.qPowers[h]-1)/(g.Q-1) + b
}

// EdgeIndex returns the x ∈ GF(q) such that OutputAt(Split(v), x) == u,
// or −1 if v is not adjacent to u.
func (g *Design) EdgeIndex(v, u int) int {
	h, a, b := g.Split(v)
	x := (u / g.qPowers[h]) % g.Q
	if g.OutputAt(h, a, b, x) == u {
		return x
	}
	return -1
}

// CommonInputs returns the selected inputs adjacent to both outputs u1
// and u2 (u1 ≠ u2). In the full BIBD there is exactly one (λ = 1); the
// balanced subgraph has at most one. Intended for verification.
func (g *Design) CommonInputs(u1, u2 int) []int {
	if u1 == u2 {
		panic("bibd: CommonInputs requires distinct outputs")
	}
	var out []int
	deg := g.Degree(u1)
	buf := make([]int, 0, g.Q)
	for r := 0; r < deg; r++ {
		v := g.InputAtRank(u1, r)
		buf = g.OutputsOf(v, buf[:0])
		for _, u := range buf {
			if u == u2 {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func ipow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r = mulCheck(r, b)
	}
	return r
}

func mulCheck(a, b int) int {
	r := a * b
	if a != 0 && r/a != b {
		panic("bibd: integer overflow")
	}
	return r
}
