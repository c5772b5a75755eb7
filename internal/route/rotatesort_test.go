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
				if steps <= 0 || L == 0 {
					t.Fatalf("side %d: no work done", side)
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
				// Blocked layout: rank j at snake position j/L.
				rank := 0
				for i := 0; i < r.Size(); i++ {
					p := r.ProcAtSnake(m, i)
					for range out[p] {
						if rank/L != i {
							t.Fatalf("side %d: rank %d on snake proc %d, want %d", side, rank, i, rank/L)
						}
						rank++
					}
				}
			}
		}
	}
}

// Adversarial inputs: already sorted, reverse sorted, all-equal,
// few-distinct.
func TestRotateSortAdversarial(t *testing.T) {
	m := mesh.MustNew(9)
	r := m.Full()
	patterns := map[string]func(i int) uint64{
		"sorted":   func(i int) uint64 { return uint64(i) },
		"reversed": func(i int) uint64 { return uint64(1000 - i) },
		"constant": func(i int) uint64 { return 7 },
		"binary":   func(i int) uint64 { return uint64(i % 2) },
		"sawtooth": func(i int) uint64 { return uint64(i % 9) },
	}
	for name, gen := range patterns {
		items := make([][]item, m.N)
		for p := 0; p < m.N; p++ {
			for j := 0; j < 2; j++ {
				items[p] = append(items[p], item{key: gen(p*2 + j)})
			}
		}
		out, _, _ := SortSnakeRotate(m, r, items, func(v item) uint64 { return v.key })
		all := collect(m, r, out)
		for i := 1; i < len(all); i++ {
			if all[i-1].key > all[i].key {
				t.Fatalf("%s: not sorted at %d", name, i)
			}
		}
	}
}

// On unsupported regions SortSnakeRotate must fall back to SortSnake and
// still sort.
func TestRotateSortFallback(t *testing.T) {
	m := mesh.MustNew(8) // 8 is not a perfect square
	rng := rand.New(rand.NewSource(2))
	items := scatterItems(m, m.Full(), 100, rng)
	out, _, steps := SortSnakeRotate(m, m.Full(), items, func(v item) uint64 { return v.key })
	all := collect(m, m.Full(), out)
	for i := 1; i < len(all); i++ {
		if all[i-1].key > all[i].key {
			t.Fatal("fallback not sorted")
		}
	}
	if steps != SortCost(m.Full(), 2) && steps <= 0 {
		t.Fatalf("fallback cost %d unexpected", steps)
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
