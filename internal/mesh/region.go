package mesh

import "fmt"

// Region is a rectangular submesh: rows [R0, R0+H), columns [C0, C0+W).
type Region struct {
	R0, C0 int
	H, W   int
}

// Size returns the number of processors in the region.
func (r Region) Size() int { return r.H * r.W }

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("[%d:%d)x[%d:%d)", r.R0, r.R0+r.H, r.C0, r.C0+r.W)
}

// Contains reports whether processor p of machine m lies in the region.
func (r Region) Contains(m *Machine, p int) bool {
	row, col := m.RowOf(p), m.ColOf(p)
	return row >= r.R0 && row < r.R0+r.H && col >= r.C0 && col < r.C0+r.W
}

// SnakeIndex returns the position of processor p in the region's
// boustrophedon (snake) order: relative row 0 left-to-right, relative
// row 1 right-to-left, and so on. It panics if p is outside the region.
func (r Region) SnakeIndex(m *Machine, p int) int {
	row, col := m.RowOf(p)-r.R0, m.ColOf(p)-r.C0
	if row < 0 || row >= r.H || col < 0 || col >= r.W {
		panic(fmt.Sprintf("mesh: processor %d outside region %v", p, r))
	}
	if row%2 == 0 {
		return row*r.W + col
	}
	return row*r.W + (r.W - 1 - col)
}

// ProcAtSnake is the inverse of SnakeIndex.
func (r Region) ProcAtSnake(m *Machine, i int) int {
	if i < 0 || i >= r.Size() {
		panic(fmt.Sprintf("mesh: snake index %d outside region %v", i, r))
	}
	row := i / r.W
	col := i % r.W
	if row%2 == 1 {
		col = r.W - 1 - col
	}
	return m.IDOf(r.R0+row, r.C0+col)
}

// SplitQ tessellates the region into `parts` congruent subregions,
// where parts must be a power of q dividing the region exactly. The
// split proceeds recursively, dividing the currently longer side into q
// strips, which keeps the aspect ratio of every subregion at most q
// when the region starts square (the tessellations of §3.3).
//
// Subregions are returned in a canonical order: index i of the result
// is the subregion assigned to page/module index i by the HMOS layout.
func (r Region) SplitQ(q, parts int) ([]Region, error) {
	if parts < 1 {
		return nil, fmt.Errorf("mesh: parts=%d must be ≥ 1", parts)
	}
	if parts == 1 {
		return []Region{r}, nil
	}
	p := parts
	for p > 1 {
		if p%q != 0 {
			return nil, fmt.Errorf("mesh: parts=%d is not a power of q=%d", parts, q)
		}
		p /= q
	}
	cur := []Region{r}
	for f := parts; f > 1; f /= q {
		next := make([]Region, 0, len(cur)*q)
		for _, reg := range cur {
			subs, err := reg.splitOnce(q)
			if err != nil {
				return nil, err
			}
			next = append(next, subs...)
		}
		cur = next
	}
	return cur, nil
}

// splitOnce divides the region into q strips along its longer side.
func (r Region) splitOnce(q int) ([]Region, error) {
	out := make([]Region, 0, q)
	if r.H >= r.W {
		if r.H%q != 0 {
			return nil, fmt.Errorf("mesh: region %v height not divisible by %d", r, q)
		}
		h := r.H / q
		for i := 0; i < q; i++ {
			out = append(out, Region{R0: r.R0 + i*h, C0: r.C0, H: h, W: r.W})
		}
		return out, nil
	}
	if r.W%q != 0 {
		return nil, fmt.Errorf("mesh: region %v width not divisible by %d", r, q)
	}
	w := r.W / q
	for i := 0; i < q; i++ {
		out = append(out, Region{R0: r.R0, C0: r.C0 + i*w, H: r.H, W: w})
	}
	return out, nil
}

// SubRegionIndex returns which subregion of SplitQ(q, parts) contains
// processor p, without materializing the split. It mirrors the
// recursive longest-side-first subdivision.
func (r Region) SubRegionIndex(m *Machine, q, parts, p int) int {
	idx := 0
	reg := r
	for f := parts; f > 1; f /= q {
		var child int
		if reg.H >= reg.W {
			h := reg.H / q
			child = (m.RowOf(p) - reg.R0) / h
			reg = Region{R0: reg.R0 + child*h, C0: reg.C0, H: h, W: reg.W}
		} else {
			w := reg.W / q
			child = (m.ColOf(p) - reg.C0) / w
			reg = Region{R0: reg.R0, C0: reg.C0 + child*w, H: reg.H, W: w}
		}
		idx = idx*q + child
	}
	return idx
}

// SubRegionAt returns subregion idx of SplitQ(q, parts) without
// materializing the split — the inverse of SubRegionIndex. It walks the
// same longest-side-first recursion, peeling one base-q digit of idx
// per level (most significant first, matching SplitQ's enumeration
// order). parts must be a power of q dividing the region exactly, as
// for SplitQ; idx must lie in [0, parts).
func (r Region) SubRegionAt(q, parts, idx int) Region {
	if idx < 0 || idx >= parts {
		panic(fmt.Sprintf("mesh: subregion index %d outside [0,%d)", idx, parts))
	}
	reg := r
	for f := parts; f > 1; f /= q {
		div := f / q
		child := idx / div
		idx %= div
		if reg.H >= reg.W {
			h := reg.H / q
			reg = Region{R0: reg.R0 + child*h, C0: reg.C0, H: h, W: reg.W}
		} else {
			w := reg.W / q
			reg = Region{R0: reg.R0, C0: reg.C0 + child*w, H: reg.H, W: w}
		}
	}
	return reg
}
