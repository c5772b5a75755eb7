// Package workload generates the request sets the experiments feed the
// simulators: uniform random permutations (the paper's generic "any set
// of n distinct variables"), structured patterns (transpose,
// bit-reversal) that are classic congestion stressors, module-hot
// adversarial sets that defeat single-copy organizations, and skewed
// sets. All generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math/rand"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
)

// Vars is a request set: a list of distinct variable indexes.
type Vars []int

// RandomDistinct returns count distinct variables drawn uniformly from
// [0, vars): exactly rand.New(rand.NewSource(seed)).Perm(vars)[:count],
// computed in O(count) memory by replaying Perm's loop and keeping only
// the slots below count (TestRandomDistinctMatchesPerm).
func RandomDistinct(vars, count int, seed int64) Vars {
	count = max(min(count, vars), 0)
	rng := rand.New(rand.NewSource(seed))
	m := make(Vars, count)
	for i := 0; i < vars; i++ {
		j := rng.Intn(i + 1)
		if i < count {
			m[i] = m[j]
		}
		if j < count {
			m[j] = i
		}
	}
	return m
}

// Stride returns count variables spaced by the given stride (mod vars):
// contiguous for stride 1 — the "dense" pattern that packs requests
// into few BIBD h-blocks.
func Stride(vars, count, stride int) Vars {
	if count > vars {
		count = vars
	}
	out := make(Vars, 0, count)
	seen := make(map[int]bool, count)
	v := 0
	for len(out) < count {
		// When the stride orbit closes before yielding count distinct
		// variables (gcd(stride, vars) > 1), escape to the next unseen
		// one; count ≤ vars guarantees termination.
		for seen[v] {
			v = (v + 1) % vars
		}
		seen[v] = true
		out = append(out, v)
		v = (v + stride) % vars
	}
	return out
}

// Transpose returns the requests of a matrix-transpose step: processor
// (i, j) of a side×side grid requests element (j, i) of a row-major
// side² matrix stored in the first side² variables.
func Transpose(vars, side int) (Vars, error) {
	if side*side > vars {
		return nil, fmt.Errorf("workload: transpose needs %d vars, have %d", side*side, vars)
	}
	out := make(Vars, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			out[i*side+j] = j*side + i
		}
	}
	return out, nil
}

// BitReverse returns the bit-reversal permutation pattern on 2^bits
// requests (a classic worst case for oblivious routing).
func BitReverse(vars, bits int) (Vars, error) {
	n := 1 << bits
	if n > vars {
		return nil, fmt.Errorf("workload: bit-reverse needs %d vars, have %d", n, vars)
	}
	out := make(Vars, n)
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		out[i] = r
	}
	return out, nil
}

// ModuleHot returns up to count distinct variables that all keep a copy
// in the same level-1 module of the scheme — the adversarial set that
// maximizes memory contention on one logical module. For the HMOS this
// is exactly the situation culling plus replication must absorb.
func ModuleHot(s *hmos.Scheme, module, count int) Vars {
	g := s.Graphs[0]
	deg := g.Degree(module)
	if count > deg {
		count = deg
	}
	out := make(Vars, count)
	for r := 0; r < count; r++ {
		out[r] = g.InputAtRank(module, r)
	}
	return out
}

// Reads converts a request set into read ops, one per origin 0..len-1.
func (v Vars) Reads() []core.Op {
	ops := make([]core.Op, len(v))
	for i, vv := range v {
		ops[i] = core.Op{Origin: i, Var: vv}
	}
	return ops
}

// Writes converts a request set into write ops with the given base
// value.
func (v Vars) Writes(base core.Word) []core.Op {
	ops := make([]core.Op, len(v))
	for i, vv := range v {
		ops[i] = core.Op{Origin: i, Var: vv, IsWrite: true, Value: base + core.Word(i)}
	}
	return ops
}

// Mixed converts a request set into alternating read/write ops.
func (v Vars) Mixed(base core.Word) []core.Op {
	ops := make([]core.Op, len(v))
	for i, vv := range v {
		ops[i] = core.Op{Origin: i, Var: vv, IsWrite: i%2 == 0, Value: base + core.Word(i)}
	}
	return ops
}
