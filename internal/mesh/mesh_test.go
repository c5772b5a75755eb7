package mesh

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("side 0 accepted")
	}
	m := MustNew(9)
	if m.N != 81 || m.Side != 9 {
		t.Fatalf("N=%d Side=%d", m.N, m.Side)
	}
}

func TestCoordinates(t *testing.T) {
	m := MustNew(7)
	for p := 0; p < m.N; p++ {
		if m.IDOf(m.RowOf(p), m.ColOf(p)) != p {
			t.Fatalf("coordinate roundtrip failed at %d", p)
		}
	}
	if m.Dist(0, m.N-1) != 12 {
		t.Fatalf("Dist corner-to-corner = %d, want 12", m.Dist(0, m.N-1))
	}
	if m.Dist(10, 10) != 0 {
		t.Fatal("Dist(p,p) != 0")
	}
}

func TestStepsAccounting(t *testing.T) {
	m := MustNew(3)
	m.AddSteps(5)
	m.AddSteps(7)
	if m.Steps() != 12 {
		t.Fatalf("Steps=%d", m.Steps())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative AddSteps did not panic")
		}
	}()
	m.AddSteps(-1)
}

func TestSnakeIndexRoundtrip(t *testing.T) {
	m := MustNew(12)
	regs := []Region{
		m.Full(),
		{R0: 2, C0: 3, H: 4, W: 6},
		{R0: 0, C0: 0, H: 1, W: 12},
		{R0: 5, C0: 5, H: 3, W: 1},
	}
	for _, r := range regs {
		seen := make([]bool, r.Size())
		for row := r.R0; row < r.R0+r.H; row++ {
			for col := r.C0; col < r.C0+r.W; col++ {
				p := m.IDOf(row, col)
				i := r.SnakeIndex(m, p)
				if i < 0 || i >= r.Size() {
					t.Fatalf("region %v: snake index %d out of range", r, i)
				}
				if seen[i] {
					t.Fatalf("region %v: snake index %d repeated", r, i)
				}
				seen[i] = true
				if r.ProcAtSnake(m, i) != p {
					t.Fatalf("region %v: ProcAtSnake(SnakeIndex(%d)) != %d", r, p, p)
				}
			}
		}
	}
}

// Consecutive snake positions must be mesh neighbors (distance 1).
func TestSnakeAdjacent(t *testing.T) {
	m := MustNew(10)
	r := Region{R0: 1, C0: 2, H: 5, W: 4}
	for i := 0; i+1 < r.Size(); i++ {
		p, q := r.ProcAtSnake(m, i), r.ProcAtSnake(m, i+1)
		if m.Dist(p, q) != 1 {
			t.Fatalf("snake positions %d,%d are %d apart", i, i+1, m.Dist(p, q))
		}
	}
}

func TestSplitQCoversDisjoint(t *testing.T) {
	m := MustNew(27)
	full := m.Full()
	for _, parts := range []int{1, 3, 9, 27, 81, 729} {
		subs, err := full.SplitQ(3, parts)
		if err != nil {
			t.Fatalf("SplitQ(3,%d): %v", parts, err)
		}
		if len(subs) != parts {
			t.Fatalf("SplitQ(3,%d) returned %d regions", parts, len(subs))
		}
		owner := make([]int, m.N)
		for i := range owner {
			owner[i] = -1
		}
		for i, s := range subs {
			if s.Size() != m.N/parts {
				t.Fatalf("subregion %d has size %d, want %d", i, s.Size(), m.N/parts)
			}
			// Aspect ratio at most q for square start.
			ar := s.H * 1000 / s.W
			if ar > 3000 || ar < 333 {
				t.Fatalf("subregion %v aspect ratio out of [1/3,3]", s)
			}
			for row := s.R0; row < s.R0+s.H; row++ {
				for col := s.C0; col < s.C0+s.W; col++ {
					p := m.IDOf(row, col)
					if owner[p] != -1 {
						t.Fatalf("processor %d in two subregions", p)
					}
					owner[p] = i
				}
			}
		}
		for p, o := range owner {
			if o == -1 {
				t.Fatalf("processor %d uncovered", p)
			}
			if got := full.SubRegionIndex(m, 3, parts, p); got != o {
				t.Fatalf("SubRegionIndex(%d)=%d, want %d", p, got, o)
			}
		}
	}
}

func TestSubRegionAtMatchesSplitQ(t *testing.T) {
	// SubRegionAt(q, parts, i) must equal SplitQ(q, parts)[i] for every
	// index, including non-square intermediate shapes (side 2·3^2 forces
	// width-first splits at odd levels).
	for _, side := range []int{27, 18, 81} {
		m := MustNew(side)
		full := m.Full()
		for _, parts := range []int{1, 3, 9, 27, 81} {
			subs, err := full.SplitQ(3, parts)
			if err != nil {
				continue
			}
			for i, want := range subs {
				if got := full.SubRegionAt(3, parts, i); got != want {
					t.Fatalf("side %d: SubRegionAt(3,%d,%d)=%v, want %v", side, parts, i, got, want)
				}
			}
		}
	}
	// Also from a non-square root, as the HMOS descends through them.
	root := Region{R0: 0, C0: 0, H: 27, W: 9}
	subs, err := root.SplitQ(3, 27)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range subs {
		if got := root.SubRegionAt(3, 27, i); got != want {
			t.Fatalf("rect root: SubRegionAt(3,27,%d)=%v, want %v", i, got, want)
		}
	}
}

func TestSplitQErrors(t *testing.T) {
	m := MustNew(10)
	if _, err := m.Full().SplitQ(3, 6); err == nil {
		t.Error("non-power parts accepted")
	}
	if _, err := m.Full().SplitQ(3, 9); err == nil {
		t.Error("indivisible region accepted")
	}
	if _, err := m.Full().SplitQ(3, 0); err == nil {
		t.Error("parts=0 accepted")
	}
}

func TestSplitQNested(t *testing.T) {
	// Nested splits must refine: SplitQ(q, a*b) subregion i lies inside
	// SplitQ(q, a) subregion i/b.
	m := MustNew(81)
	full := m.Full()
	outer, err := full.SplitQ(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := full.SplitQ(3, 81)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range inner {
		o := outer[i/9]
		if s.R0 < o.R0 || s.C0 < o.C0 || s.R0+s.H > o.R0+o.H || s.C0+s.W > o.C0+o.W {
			t.Fatalf("inner %d (%v) not inside outer %d (%v)", i, s, i/9, o)
		}
	}
}

func TestQuickSnakeBijection(t *testing.T) {
	m := MustNew(20)
	r := Region{R0: 3, C0: 4, H: 8, W: 12}
	prop := func(raw uint16) bool {
		i := int(raw) % r.Size()
		return r.SnakeIndex(m, r.ProcAtSnake(m, i)) == i
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	m := MustNew(10)
	r := Region{R0: 2, C0: 2, H: 3, W: 3}
	if !r.Contains(m, m.IDOf(2, 2)) || !r.Contains(m, m.IDOf(4, 4)) {
		t.Fatal("corner not contained")
	}
	if r.Contains(m, m.IDOf(1, 2)) || r.Contains(m, m.IDOf(2, 5)) || r.Contains(m, m.IDOf(5, 2)) {
		t.Fatal("outside point contained")
	}
}
