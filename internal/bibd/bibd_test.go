package bibd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"meshpram/internal/gf"
)

func TestFCounts(t *testing.T) {
	cases := []struct{ q, s, want int }{
		{3, 1, 1}, {3, 2, 12}, {3, 3, 117}, {3, 4, 1080},
		{4, 2, 20}, {5, 2, 30}, {2, 3, 28},
	}
	for _, c := range cases {
		if got := F(c.q, c.s); got != c.want {
			t.Errorf("F(%d,%d) = %d, want %d", c.q, c.s, got, c.want)
		}
	}
}

func TestNewSubValidation(t *testing.T) {
	f := gf.MustNew(3)
	if _, err := NewSub(f, 2, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewSub(f, 2, F(3, 2)+1); err == nil {
		t.Error("m>f(d) accepted")
	}
	if _, err := NewSub(f, 0, 1); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestSplitJoinRoundtrip(t *testing.T) {
	for _, qd := range []struct{ q, d int }{{3, 2}, {3, 3}, {4, 2}, {5, 2}, {9, 2}} {
		g := MustNew(gf.MustNew(qd.q), qd.d)
		for v := 0; v < g.Inputs(); v++ {
			h, a, b := g.Split(v)
			if h < 0 || h >= qd.d {
				t.Fatalf("q=%d d=%d: Split(%d) h=%d out of range", qd.q, qd.d, v, h)
			}
			if b >= g.qPowers[h] {
				t.Fatalf("q=%d d=%d: Split(%d) b=%d ≥ q^h", qd.q, qd.d, v, b)
			}
			if got := g.Join(h, a, b); got != v {
				t.Fatalf("q=%d d=%d: Join(Split(%d)) = %d", qd.q, qd.d, v, got)
			}
		}
	}
}

// Definition 1: every input has degree q with q distinct neighbors.
func TestInputDegree(t *testing.T) {
	for _, qd := range []struct{ q, d int }{{3, 2}, {3, 3}, {4, 2}, {5, 2}, {8, 2}} {
		g := MustNew(gf.MustNew(qd.q), qd.d)
		var buf []int
		for v := 0; v < g.Inputs(); v++ {
			buf = g.OutputsOf(v, buf[:0])
			if len(buf) != qd.q {
				t.Fatalf("input %d has %d outputs", v, len(buf))
			}
			seen := map[int]bool{}
			for _, u := range buf {
				if u < 0 || u >= g.Outputs() {
					t.Fatalf("input %d: output %d out of range", v, u)
				}
				if seen[u] {
					t.Fatalf("input %d adjacent to output %d twice", v, u)
				}
				seen[u] = true
			}
		}
	}
}

// Definition 1: any two outputs share exactly one input (λ = 1).
// Exhaustive on full designs small enough to enumerate.
func TestLambdaOneExhaustive(t *testing.T) {
	for _, qd := range []struct{ q, d int }{{3, 2}, {3, 3}, {4, 2}, {5, 2}} {
		g := MustNew(gf.MustNew(qd.q), qd.d)
		n := g.Outputs()
		for u1 := 0; u1 < n; u1++ {
			for u2 := u1 + 1; u2 < n; u2++ {
				common := g.CommonInputs(u1, u2)
				if len(common) != 1 {
					t.Fatalf("q=%d d=%d: outputs %d,%d share %d inputs, want 1",
						qd.q, qd.d, u1, u2, len(common))
				}
			}
		}
	}
}

// λ = 1 spot checks on a larger design.
func TestLambdaOneRandomLarge(t *testing.T) {
	g := MustNew(gf.MustNew(3), 5) // 243 outputs, f(5)=9801 inputs
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		u1 := rng.Intn(g.Outputs())
		u2 := rng.Intn(g.Outputs())
		if u1 == u2 {
			continue
		}
		if c := g.CommonInputs(u1, u2); len(c) != 1 {
			t.Fatalf("outputs %d,%d share %d inputs", u1, u2, len(c))
		}
	}
}

// Output degree of the full design is (q^d−1)/(q−1).
func TestFullOutputDegree(t *testing.T) {
	for _, qd := range []struct{ q, d int }{{3, 2}, {3, 3}, {3, 4}, {4, 2}, {5, 2}} {
		g := MustNew(gf.MustNew(qd.q), qd.d)
		want := (g.qPowers[qd.d] - 1) / (qd.q - 1)
		for u := 0; u < g.Outputs(); u++ {
			if got := g.Degree(u); got != want {
				t.Fatalf("q=%d d=%d: Degree(%d)=%d want %d", qd.q, qd.d, u, got, want)
			}
		}
	}
}

// Theorem 5: for every m the balanced subgraph has output degrees in
// {⌊qm/q^d⌋, ⌈qm/q^d⌉}, and the degrees sum to q·m (edge conservation).
func TestTheorem5BalanceExhaustive(t *testing.T) {
	for _, qd := range []struct{ q, d int }{{3, 2}, {3, 3}, {4, 2}} {
		f := gf.MustNew(qd.q)
		fd := F(qd.q, qd.d)
		for m := 1; m <= fd; m++ {
			g := MustNewSub(f, qd.d, m)
			lo := qd.q * m / g.Outputs()
			hi := lo
			if qd.q*m%g.Outputs() != 0 {
				hi++
			}
			sum := 0
			for u := 0; u < g.Outputs(); u++ {
				deg := g.Degree(u)
				if deg != lo && deg != hi {
					t.Fatalf("q=%d d=%d m=%d: Degree(%d)=%d not in {%d,%d}",
						qd.q, qd.d, m, u, deg, lo, hi)
				}
				sum += deg
			}
			if sum != qd.q*m {
				t.Fatalf("q=%d d=%d m=%d: degree sum %d != q·m = %d", qd.q, qd.d, m, sum, qd.q*m)
			}
		}
	}
}

// Degree must agree with brute-force adjacency counting.
func TestDegreeMatchesBruteForce(t *testing.T) {
	for _, m := range []int{1, 5, 12, 40, 77, 117} {
		g := MustNewSub(gf.MustNew(3), 3, m)
		counts := make([]int, g.Outputs())
		var buf []int
		for v := 0; v < m; v++ {
			buf = g.OutputsOf(v, buf[:0])
			for _, u := range buf {
				counts[u]++
			}
		}
		for u := 0; u < g.Outputs(); u++ {
			if g.Degree(u) != counts[u] {
				t.Fatalf("m=%d: Degree(%d)=%d, brute force %d", m, u, g.Degree(u), counts[u])
			}
		}
	}
}

// InputAtRank must enumerate exactly the selected neighbors, each once,
// and RankOfInput must invert it.
func TestRankEnumeration(t *testing.T) {
	for _, m := range []int{1, 7, 12, 50, 117} {
		g := MustNewSub(gf.MustNew(3), 3, m)
		for u := 0; u < g.Outputs(); u++ {
			deg := g.Degree(u)
			seen := map[int]bool{}
			var buf []int
			for r := 0; r < deg; r++ {
				v := g.InputAtRank(u, r)
				if v < 0 || v >= m {
					t.Fatalf("m=%d u=%d r=%d: input %d not selected", m, u, r, v)
				}
				if seen[v] {
					t.Fatalf("m=%d u=%d: input %d enumerated twice", m, u, v)
				}
				seen[v] = true
				// v must actually be adjacent to u.
				buf = g.OutputsOf(v, buf[:0])
				adj := false
				for _, x := range buf {
					if x == u {
						adj = true
					}
				}
				if !adj {
					t.Fatalf("m=%d u=%d r=%d: input %d not adjacent", m, u, r, v)
				}
				if rr := g.RankOfInput(u, v); rr != r {
					t.Fatalf("m=%d u=%d: RankOfInput(%d)=%d want %d", m, u, v, rr, r)
				}
			}
		}
	}
}

func TestEdgeIndex(t *testing.T) {
	g := MustNew(gf.MustNew(4), 2)
	var buf []int
	for v := 0; v < g.Inputs(); v++ {
		buf = g.OutputsOf(v, buf[:0])
		for x, u := range buf {
			if got := g.EdgeIndex(v, u); got != x {
				t.Fatalf("EdgeIndex(%d,%d)=%d want %d", v, u, got, x)
			}
		}
	}
	// Non-adjacent pair.
	u := buf[0]
	for v := 0; v < g.Inputs(); v++ {
		adj := false
		for _, w := range g.OutputsOf(v, nil) {
			if w == u {
				adj = true
			}
		}
		if !adj {
			if g.EdgeIndex(v, u) != -1 {
				t.Fatalf("EdgeIndex(%d,%d) should be -1", v, u)
			}
			break
		}
	}
}

// Lemma 1 (strong expansion): take a set S of inputs all adjacent to a
// fixed output u; for each, fix k ≤ q outgoing edges including the edge
// to u; the reached set has size exactly (k−1)|S| + 1.
func TestLemma1StrongExpansion(t *testing.T) {
	for _, qd := range []struct{ q, d int }{{3, 2}, {3, 3}, {5, 2}} {
		g := MustNew(gf.MustNew(qd.q), qd.d)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 50; trial++ {
			u := rng.Intn(g.Outputs())
			deg := g.Degree(u)
			// Random subset S of u's neighbors.
			var S []int
			for r := 0; r < deg; r++ {
				if rng.Intn(2) == 0 {
					S = append(S, g.InputAtRank(u, r))
				}
			}
			if len(S) == 0 {
				continue
			}
			for k := 1; k <= qd.q; k++ {
				reached := map[int]bool{}
				var buf []int
				for _, w := range S {
					buf = g.OutputsOf(w, buf[:0])
					// Fix k edges including the one to u: u first, then
					// k−1 others chosen deterministically.
					reached[u] = true
					cnt := 1
					for _, out := range buf {
						if cnt == k {
							break
						}
						if out != u {
							reached[out] = true
							cnt++
						}
					}
				}
				want := (k-1)*len(S) + 1
				if len(reached) != want {
					t.Fatalf("q=%d d=%d u=%d |S|=%d k=%d: |Γ|=%d want %d",
						qd.q, qd.d, u, len(S), k, len(reached), want)
				}
			}
		}
	}
}

// Edge count of the full design: f(d)·q edges, and output degrees
// partition them.
func TestEdgeConservationFull(t *testing.T) {
	for _, qd := range []struct{ q, d int }{{3, 2}, {3, 3}, {4, 2}, {7, 2}} {
		g := MustNew(gf.MustNew(qd.q), qd.d)
		sum := 0
		for u := 0; u < g.Outputs(); u++ {
			sum += g.Degree(u)
		}
		if sum != g.Inputs()*qd.q {
			t.Fatalf("q=%d d=%d: edge sum %d want %d", qd.q, qd.d, sum, g.Inputs()*qd.q)
		}
	}
}

// Property: for random (input, x), the adjacency is consistent both ways.
func TestQuickAdjacencyConsistency(t *testing.T) {
	g := MustNew(gf.MustNew(9), 2)
	prop := func(rv, rx uint16) bool {
		v := int(rv) % g.Inputs()
		x := int(rx) % g.Q
		h, a, b := g.Split(v)
		u := g.OutputAt(h, a, b, x)
		if g.EdgeIndex(v, u) != x {
			return false
		}
		r := g.RankOfInput(u, v)
		return g.RankOf(h, b) == r && g.InputAtRank(u, r) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// d = 1 degenerate design: one input adjacent to all q outputs.
func TestDegenerateD1(t *testing.T) {
	g := MustNew(gf.MustNew(5), 1)
	if g.Inputs() != 1 || g.Outputs() != 5 {
		t.Fatalf("d=1: inputs=%d outputs=%d", g.Inputs(), g.Outputs())
	}
	outs := g.OutputsOf(0, nil)
	if len(outs) != 5 {
		t.Fatalf("d=1: %d outputs", len(outs))
	}
	for u := 0; u < 5; u++ {
		if g.Degree(u) != 1 {
			t.Fatalf("d=1: Degree(%d)=%d", u, g.Degree(u))
		}
		if g.InputAtRank(u, 0) != 0 {
			t.Fatalf("d=1: InputAtRank(%d,0)!=0", u)
		}
	}
}

func BenchmarkOutputsOf(b *testing.B) {
	g := MustNew(gf.MustNew(3), 7)
	buf := make([]int, 0, 3)
	for i := 0; i < b.N; i++ {
		buf = g.OutputsOf(i%g.Inputs(), buf[:0])
	}
}

func BenchmarkInputAtRank(b *testing.B) {
	g := MustNew(gf.MustNew(3), 7)
	deg := g.Degree(0)
	for i := 0; i < b.N; i++ {
		g.InputAtRank(i%g.Outputs(), i%deg)
	}
}
