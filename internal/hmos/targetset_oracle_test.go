package hmos

import (
	"math/rand"
	"testing"
)

// selectTS runs SelectTargetSet over freshly allocated buffers, for
// tests that check one selection at a time.
func selectTS(s *Scheme, i int, avail, preferred []bool) ([]bool, bool) {
	sel := make([]bool, s.Redundant)
	ok := s.SelectTargetSet(i, avail, preferred, make([]int64, s.TargetSetScratch()), sel)
	return sel, ok
}

// oracleSelectTargetSet is the recursive, closure-based selection the
// flat two-pass DP replaced, kept verbatim as the reference: costFn
// recomputes every subtree's cost, and pick re-runs costFn at every
// node it descends through.
func oracleSelectTargetSet(s *Scheme, i int, avail, preferred []bool) ([]bool, bool) {
	q, k := s.Q, s.K
	var costFn func(j, base int) int64
	costFn = func(j, base int) int64 {
		if j == k {
			if !avail[base] {
				return inf
			}
			if preferred != nil && preferred[base] {
				return 0
			}
			return 1
		}
		span := s.qPowK[k-j-1]
		t := threshold(q, i, j)
		costs := make([]int64, q)
		for c := 0; c < q; c++ {
			costs[c] = costFn(j+1, base+c*span)
		}
		return oracleSumSmallest(costs, t)
	}
	if costFn(0, 0) >= inf {
		return nil, false
	}
	sel := make([]bool, s.Redundant)
	var pick func(j, base int)
	pick = func(j, base int) {
		if j == k {
			sel[base] = true
			return
		}
		span := s.qPowK[k-j-1]
		t := threshold(q, i, j)
		type cc struct {
			c    int
			cost int64
		}
		cs := make([]cc, q)
		for c := 0; c < q; c++ {
			cs[c] = cc{c, costFn(j+1, base+c*span)}
		}
		// Stable selection of the t cheapest children (ties by index).
		for picked := 0; picked < t; picked++ {
			best := -1
			for c := 0; c < q; c++ {
				if cs[c].cost >= inf || cs[c].c < 0 {
					continue
				}
				if best == -1 || cs[c].cost < cs[best].cost {
					best = c
				}
			}
			pick(j+1, base+cs[best].c*span)
			cs[best].c = -1 // consumed
		}
	}
	pick(0, 0)
	return sel, true
}

// oracleSumSmallest returns the sum of the t smallest values, or inf if
// fewer than t are finite.
func oracleSumSmallest(costs []int64, t int) int64 {
	tmp := append([]int64(nil), costs...)
	for i := 0; i < len(tmp); i++ {
		for j := i + 1; j < len(tmp); j++ {
			if tmp[j] < tmp[i] {
				tmp[i], tmp[j] = tmp[j], tmp[i]
			}
		}
	}
	var sum int64
	for i := 0; i < t; i++ {
		if tmp[i] >= inf {
			return inf
		}
		sum += tmp[i]
	}
	return sum
}

// checkAgainstOracle runs both selections on one (level, avail,
// preferred) case through shared, dirty buffers — the flat DP must not
// depend on what a previous call left in its scratch — and demands the
// same verdict and the same mask.
func checkAgainstOracle(t *testing.T, s *Scheme, i int, avail, pref []bool, cost []int64, sel []bool) {
	t.Helper()
	want, wantOK := oracleSelectTargetSet(s, i, avail, pref)
	ok := s.SelectTargetSet(i, avail, pref, cost, sel)
	if ok != wantOK {
		t.Fatalf("q=%d k=%d level %d avail %v pref %v: ok=%v, oracle %v", s.Q, s.K, i, avail, pref, ok, wantOK)
	}
	for b := range sel {
		if sel[b] != (wantOK && want[b]) {
			t.Fatalf("q=%d k=%d level %d avail %v pref %v: mask %v, oracle %v", s.Q, s.K, i, avail, pref, sel, want)
		}
	}
}

func maskOf(bitsSet uint, n int) []bool {
	m := make([]bool, n)
	for b := range m {
		m[b] = bitsSet>>b&1 == 1
	}
	return m
}

// TestSelectTargetSetMatchesOracleExhaustive covers every avail mask ×
// every preferred mask (nil included) × every level at q=3, k=2: 2^9 ×
// (2^9+1) × 3 selections.
func TestSelectTargetSetMatchesOracleExhaustive(t *testing.T) {
	s := MustNew(Params{Side: 9, Q: 3, D: 3, K: 2})
	cost := make([]int64, s.TargetSetScratch())
	sel := make([]bool, s.Redundant)
	for a := uint(0); a < 1<<s.Redundant; a++ {
		avail := maskOf(a, s.Redundant)
		for p := -1; p < 1<<s.Redundant; p++ {
			var pref []bool
			if p >= 0 {
				pref = maskOf(uint(p), s.Redundant)
			}
			for i := 0; i <= s.K; i++ {
				checkAgainstOracle(t, s, i, avail, pref, cost, sel)
			}
		}
	}
}

// TestSelectTargetSetMatchesOracleSampled draws seeded random cases at
// (q=5, k=1) and (q=3, k=3), where exhaustive enumeration is either
// trivial or too large.
func TestSelectTargetSetMatchesOracleSampled(t *testing.T) {
	for _, p := range []Params{{Side: 25, Q: 5, D: 3, K: 1}, {Side: 27, Q: 3, D: 4, K: 3}} {
		s := MustNew(p)
		cost := make([]int64, s.TargetSetScratch())
		sel := make([]bool, s.Redundant)
		rng := rand.New(rand.NewSource(int64(p.Q*10 + p.K)))
		for trial := 0; trial < 3000; trial++ {
			density := 1 + rng.Intn(4) // drop each leaf with probability 1/(density+1)
			avail := make([]bool, s.Redundant)
			var pref []bool
			if trial%5 != 0 {
				pref = make([]bool, s.Redundant)
			}
			for b := range avail {
				avail[b] = rng.Intn(density+1) > 0
				if pref != nil {
					pref[b] = rng.Intn(2) == 0
				}
			}
			for i := 0; i <= s.K; i++ {
				checkAgainstOracle(t, s, i, avail, pref, cost, sel)
			}
		}
	}
}

// TestSelectTargetSetInPlace pins the aliasing contract culling relies
// on: the output mask may be the avail mask itself.
func TestSelectTargetSetInPlace(t *testing.T) {
	s := MustNew(Params{Side: 9, Q: 3, D: 3, K: 2})
	cost := make([]int64, s.TargetSetScratch())
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		avail := make([]bool, s.Redundant)
		pref := make([]bool, s.Redundant)
		for b := range avail {
			avail[b] = rng.Intn(4) > 0
			pref[b] = rng.Intn(2) == 0
		}
		for i := 0; i <= s.K; i++ {
			want, wantOK := oracleSelectTargetSet(s, i, avail, pref)
			mask := append([]bool(nil), avail...)
			if ok := s.SelectTargetSet(i, mask, pref, cost, mask); ok != wantOK {
				t.Fatalf("in-place ok=%v, oracle %v", ok, wantOK)
			}
			for b := range mask {
				if mask[b] != (wantOK && want[b]) {
					t.Fatalf("in-place mask %v, oracle %v", mask, want)
				}
			}
		}
	}
}
