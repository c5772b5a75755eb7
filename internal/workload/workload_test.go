package workload

import (
	"math/rand"
	"slices"
	"testing"

	"meshpram/internal/hmos"
)

func TestRandomDistinct(t *testing.T) {
	v := RandomDistinct(100, 50, 1)
	if len(v) != 50 {
		t.Fatalf("len %d", len(v))
	}
	seen := map[int]bool{}
	for _, x := range v {
		if x < 0 || x >= 100 || seen[x] {
			t.Fatalf("bad or repeated var %d", x)
		}
		seen[x] = true
	}
	// Deterministic per seed.
	v2 := RandomDistinct(100, 50, 1)
	for i := range v {
		if v[i] != v2[i] {
			t.Fatal("not deterministic")
		}
	}
	if len(RandomDistinct(10, 50, 1)) != 10 {
		t.Fatal("count not clamped to vars")
	}
}

// RandomDistinct replays rand.Perm in O(count) memory; its output must
// stay bit-identical to the full permutation's prefix, since every
// seeded workload and golden is built on it.
func TestRandomDistinctMatchesPerm(t *testing.T) {
	for _, c := range []struct {
		vars, count int
		seed        int64
	}{
		{0, 0, 1}, {1, 1, 1}, {10, 0, 3}, {10, 10, 3}, {10, 50, 3}, {100, 1, 7},
		{100, 50, 1}, {1000, 999, 2}, {796797, 6561, 1}, {796797, 59049, 11},
	} {
		want := rand.New(rand.NewSource(c.seed)).Perm(c.vars)[:min(c.count, c.vars)]
		got := RandomDistinct(c.vars, c.count, c.seed)
		if !slices.Equal([]int(got), want) {
			t.Fatalf("RandomDistinct(%d, %d, %d) differs from Perm's prefix", c.vars, c.count, c.seed)
		}
	}
}

func TestStride(t *testing.T) {
	v := Stride(100, 10, 7)
	if len(v) != 10 {
		t.Fatalf("len %d", len(v))
	}
	for i, x := range v {
		if x != (i*7)%100 {
			t.Fatalf("v[%d]=%d", i, x)
		}
	}
	// Stride sharing a factor with vars must still produce distinct vars.
	v = Stride(100, 60, 10)
	seen := map[int]bool{}
	for _, x := range v {
		if seen[x] {
			t.Fatalf("repeat %d", x)
		}
		seen[x] = true
	}
}

func TestTranspose(t *testing.T) {
	v, err := Transpose(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 16 {
		t.Fatalf("len %d", len(v))
	}
	// (i,j) requests (j,i): involution check.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if v[v[i*4+j]] != i*4+j {
				t.Fatal("transpose not an involution")
			}
		}
	}
	if _, err := Transpose(10, 4); err == nil {
		t.Fatal("oversized transpose accepted")
	}
}

func TestBitReverse(t *testing.T) {
	v, err := BitReverse(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v[1] != 8 || v[8] != 1 || v[0] != 0 || v[15] != 15 {
		t.Fatalf("bit reverse wrong: %v", v)
	}
	if _, err := BitReverse(4, 4); err == nil {
		t.Fatal("oversized bit-reverse accepted")
	}
}

func TestModuleHot(t *testing.T) {
	s := hmos.MustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2})
	v := ModuleHot(s, 5, 10)
	if len(v) == 0 {
		t.Fatal("empty hot set")
	}
	// Every variable must have module 5 among its level-1 neighbors.
	for _, vv := range v {
		found := false
		for _, u := range s.Graphs[0].OutputsOf(vv, nil) {
			if u == 5 {
				found = true
			}
		}
		if !found {
			t.Fatalf("var %d not adjacent to module 5", vv)
		}
	}
	// Distinct.
	seen := map[int]bool{}
	for _, vv := range v {
		if seen[vv] {
			t.Fatalf("repeat %d", vv)
		}
		seen[vv] = true
	}
}

func TestOpsConversion(t *testing.T) {
	v := Vars{3, 1, 4}
	r := v.Reads()
	if len(r) != 3 || r[1].Var != 1 || r[1].IsWrite {
		t.Fatalf("reads: %+v", r)
	}
	w := v.Writes(100)
	if !w[2].IsWrite || w[2].Value != 102 {
		t.Fatalf("writes: %+v", w)
	}
	m := v.Mixed(10)
	if !m[0].IsWrite || m[1].IsWrite {
		t.Fatalf("mixed: %+v", m)
	}
}
