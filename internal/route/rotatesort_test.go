package route

import (
	"math/rand"
	"testing"

	"meshpram/internal/mesh"
)

func TestCanRotateSort(t *testing.T) {
	yes := []mesh.Region{{H: 4, W: 4}, {H: 9, W: 9}, {H: 16, W: 16}, {H: 81, W: 81}}
	no := []mesh.Region{{H: 8, W: 8}, {H: 27, W: 27}, {H: 9, W: 4}, {H: 1, W: 1}, {H: 3, W: 3}}
	for _, r := range yes {
		if !CanRotateSort(r) {
			t.Errorf("region %v should support rotatesort", r)
		}
	}
	for _, r := range no {
		if CanRotateSort(r) {
			t.Errorf("region %v should not support rotatesort", r)
		}
	}
}

// RotateSort must sort random inputs on every supported side and block
// size, into exactly the snake layout SortSnake produces.
func TestRotateSortSortsRandom(t *testing.T) {
	for _, side := range []int{4, 9, 16, 25} {
		m := mesh.MustNew(side)
		r := m.Full()
		for _, loadFactor := range []int{1, 2, 4} {
			rng := rand.New(rand.NewSource(int64(side*10 + loadFactor)))
			for trial := 0; trial < 3; trial++ {
				count := loadFactor * m.N
				items := scatterItems(m, r, count, rng)
				out, L, steps := SortSnakeRotate(m, r, items, func(v item) uint64 { return v.key })
				if L == 0 || steps != RotateSortCost(r, L) {
					t.Fatalf("side %d: block length %d, %d steps, want RotateSortCost %d", side, L, steps, RotateSortCost(r, L))
				}
				all := collect(m, r, out)
				if len(all) != count {
					t.Fatalf("side %d load %d: %d items after sort, want %d", side, loadFactor, len(all), count)
				}
				for i := 1; i < len(all); i++ {
					if all[i-1].key > all[i].key {
						t.Fatalf("side %d load %d trial %d: not sorted at %d", side, loadFactor, trial, i)
					}
				}
				requireBlocked(t, m, r, out, L)
			}
		}
	}
}

// Adversarial inputs: already sorted, reverse sorted, all-equal,
// few-distinct. SortSnakeRotate must deal them exactly like SortSnake
// — equal keys keep their input order — and charge RotateSortCost.
func TestRotateSortAdversarial(t *testing.T) {
	m := mesh.MustNew(9)
	r := m.Full()
	rng := rand.New(rand.NewSource(4))
	for _, pat := range adversarialKeys {
		items := unevenItems(m, 2, rng, pat.key)
		want, wl, _ := SortSnake(m, r, cloneItems(items), func(v item) uint64 { return v.key })
		out, L, steps := SortSnakeRotate(m, r, items, func(v item) uint64 { return v.key })
		if L != wl || steps != RotateSortCost(r, L) {
			t.Fatalf("%s: block length %d, %d steps, want %d, %d", pat.name, L, steps, wl, RotateSortCost(r, wl))
		}
		requireSameLayout(t, m, r, out, want)
	}
}

// On unsupported regions SortSnakeRotate must be SortSnake: the same
// layout, block length and steps.
func TestRotateSortFallback(t *testing.T) {
	m := mesh.MustNew(8) // 8 is not a perfect square
	r := m.Full()
	rng := rand.New(rand.NewSource(2))
	items := scatterItems(m, r, 100, rng)
	want, wl, ws := SortSnake(m, r, cloneItems(items), func(v item) uint64 { return v.key })
	out, L, steps := SortSnakeRotate(m, r, items, func(v item) uint64 { return v.key })
	if L != wl || steps != ws || steps != RotateSortCost(r, L) {
		t.Fatalf("fallback: block length %d, %d steps; SortSnake %d, %d steps", L, steps, wl, ws)
	}
	requireSameLayout(t, m, r, out, want)
}

// RotateSortCost pins the schedule's step counts, which E17 reports.
// Row rotations are routed uniform instances, so these are measured
// rather than derived by hand.
func TestRotateSortCost(t *testing.T) {
	for _, c := range []struct {
		side, L int
		want    int64
	}{
		{9, 1, 136}, {9, 4, 504}, {16, 1, 242}, {16, 4, 894}, {25, 1, 378}, {25, 4, 1372},
		{49, 1, 740}, {49, 4, 2664}, {81, 1, 1222}, {81, 2, 2232}, {81, 3, 3306}, {81, 4, 4380}, {81, 5, 5454},
	} {
		if got := RotateSortCost(mesh.Region{R0: 3, C0: 5, H: c.side, W: c.side}, c.L); got != c.want {
			t.Errorf("RotateSortCost(side %d, L %d) = %d, want %d", c.side, c.L, got, c.want)
		}
	}
	if got := RotateSortCost(mesh.Region{H: 9, W: 9}, 0); got != 0 {
		t.Errorf("RotateSortCost with L=0 = %d, want 0", got)
	}
	for _, r := range []mesh.Region{{H: 8, W: 8}, {H: 9, W: 3}, {H: 1, W: 16}} {
		if got, want := RotateSortCost(r, 3), SortCost(r, 3); got != want {
			t.Errorf("RotateSortCost(%v) = %d, want SortCost %d", r, got, want)
		}
	}
}

// The headline: on large meshes RotateSort must be cheaper than
// shearsort (O(m) vs O(m·log m) phases).
func TestRotateSortBeatsShearsortAtScale(t *testing.T) {
	for _, side := range []int{16, 25, 81} {
		m := mesh.MustNew(side)
		r := m.Full()
		rng := rand.New(rand.NewSource(9))
		mk := func() [][]item { return scatterItems(m, r, m.N, rng) }
		_, _, shearSteps := SortSnake(m, r, mk(), func(v item) uint64 { return v.key })
		_, _, rotSteps := SortSnakeRotate(m, r, mk(), func(v item) uint64 { return v.key })
		if side >= 81 && rotSteps >= shearSteps {
			t.Errorf("side %d: rotatesort (%d) not cheaper than shearsort (%d)", side, rotSteps, shearSteps)
		}
		t.Logf("side %d: shearsort %d steps, rotatesort %d steps", side, shearSteps, rotSteps)
	}
}

func BenchmarkRotateSort81(b *testing.B) {
	m := mesh.MustNew(81)
	r := m.Full()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		items := scatterItems(m, r, m.N, rng)
		SortSnakeRotate(m, r, items, func(v item) uint64 { return v.key })
	}
}
