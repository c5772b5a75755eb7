package route

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"meshpram/internal/mesh"
)

// Line-decomposed healthy routing (DESIGN.md §17).
//
// On a healthy mesh every dimension-ordered path is one horizontal leg
// followed by one vertical leg, and sweep picks the winner of each
// (node, out-direction) on its own. A horizontal leg never uses a
// vertical link and a vertical leg never uses a horizontal one, so the
// cycle machine falls apart into independent one-dimensional pipelines:
//
//   - one per (row, horizontal direction), which every packet enters at
//     cycle 0 at its origin;
//   - one per (column, vertical direction), which a packet enters at the
//     cycle its horizontal leg ends (cycle 0 if it starts in its
//     destination column).
//
// routeLines solves every row line, which fixes the entries of every
// column line, then every column line, and finally appends the
// deliveries in the order the cycle loop appends them: by cycle, then
// sender, then final direction.
//
// On a mesh line a packet's priority key, remaining distance plus line
// position, never changes, so a lower-priority packet never delays a
// higher-priority one. solveLine places the packets one at a time in
// key order, each taking every link at the first cycle no earlier
// packet uses. A torus ring has no such order (DESIGN.md §17), so the
// torus runs on the cycle loop (linesSafe).

// lnMaxSide keeps every line position and priority key in the bit
// fields of lnKey and the marked runs; larger regions route with cycle
// sweeps.
const lnMaxSide = 1 << 15

// engLine is one pipeline of n nodes along a region row or column. Line
// positions run in hop order, so every hop goes from position i to i+1;
// on a line moving toward lower columns or rows the positions run
// against region order.
type engLine struct {
	n          int
	rev        bool // hops go −col or −row
	base, step int  // region-local node at region index 0, and the stride
	dir        int8 // the direction every hop on the line takes
}

// at maps a region index (column or row within the region) to its line
// position; the map is its own inverse.
func (l *engLine) at(i int) int {
	if l.rev {
		return l.n - 1 - i
	}
	return i
}

// node returns the region-local node at line position i.
func (l *engLine) node(i int) int32 { return int32(l.base + l.at(i)*l.step) }

// routeLines is the healthy path: it routes the items of region r one
// line at a time and returns the charged cycles. A packet leaving a row
// line early is delivered later on its column line, so the latest cycle
// any line drains at is the last delivery cycle. Executed is the most
// free runs any single packet made (solveLine).
func (e *Engine[T]) routeLines(delivered [][]T, r mesh.Region, items [][]T, dest func(T) int) (steps int64) {
	e.injectLines(delivered, r, items, dest)
	for row := 0; row < r.H; row++ {
		lo, hi := e.rowAt[row], e.rowAt[row+1]
		for d := int8(0); d <= 1; d++ {
			l := engLine{n: r.W, rev: d == 0, base: row * r.W, step: 1, dir: d}
			keys := e.lnKeys[:0]
			for slot := lo; slot < hi; slot++ {
				if e.dir[slot] == d {
					keys = append(keys, lnKey(int(e.dist[slot])+l.at(int(e.from[slot])-l.base), slot))
				}
			}
			e.lnKeys = keys
			if len(keys) > 0 {
				steps = max(steps, e.solveLine(&l, r, keys, 1))
			}
		}
	}
	for col := 0; col < r.W; col++ {
		for k := 0; k < 2; k++ {
			ln := 2*col + k
			lo := int32(0)
			if ln > 0 {
				lo = e.colAt[ln-1]
			}
			pend := e.colq[lo:e.colAt[ln]]
			if len(pend) == 0 {
				continue
			}
			l := engLine{n: r.H, rev: k == 0, base: col, step: r.W, dir: int8(2 + k)}
			// On a column line a packet's key, its remaining distance plus
			// its position, is its exit. Each entry becomes its sort key
			// in place, and the slot's dist field, which the solver
			// recomputes as exit − start, keeps the entry cycle meanwhile.
			first := int64(pend[0] >> 32)
			for i, en := range pend {
				slot := int32(uint32(en))
				c := int64(en >> 32)
				first = min(first, c)
				e.dist[slot] = int32(c)
				pend[i] = lnKey(l.at(e.m.RowOf(int(e.dests[slot]))-r.R0), slot)
			}
			steps = max(steps, e.solveLine(&l, r, pend, first+1))
		}
	}
	e.deliverLines(delivered, r)
	return steps
}

// lnKey is a packet's sort key on a mesh line: priority key (remaining
// distance + line position, < 3·lnMaxSide) descending, then slot
// ascending, so that ascending integer order is the order sweep
// prefers at every node.
func lnKey(key int, slot int32) uint64 {
	return uint64(lnKeyMax-key)<<32 | uint64(uint32(slot))
}

const lnKeyMax = 1 << 17

// solveLine routes the packets of mesh line l, one lnKey each in keys,
// and returns the cycle its last packet left it. Row packets start
// moving at cycle t0 = 1; a column packet's dist field holds the cycle
// it entered at its origin row, and it first moves one cycle later, no
// earlier than t0.
//
// The packets are placed one at a time in priority order. At a node,
// sweep moves the highest-priority packet present; so a packet waits at
// a link in exactly the cycles a higher-priority packet crosses it, and
// crosses at the first cycle none does. Packets placed later never
// change that. Link use is kept in two bitset views over cycles
// relative to t0 (lnPlace). Both are all-zero between lines; lnClear
// restores that after each line.
func (e *Engine[T]) solveLine(l *engLine, r mesh.Region, keys []uint64, t0 int64) int64 {
	slices.Sort(keys)
	links := l.n - 1
	pk := resize(e.lnPk, len(keys))
	for i, k := range keys {
		p := &pk[i]
		p.slot = int32(uint32(k))
		if l.dir <= 1 {
			p.x = int32(l.at(int(e.from[p.slot]) - l.base))
			p.exit = int32(l.at(int(e.dcol[p.slot]) - r.C0))
			p.u = 0
		} else {
			p.x = int32(l.at(int(e.from[p.slot]) / r.W))
			p.exit = int32(lnKeyMax - int(k>>32))
			p.u = int32(int64(e.dist[p.slot]) + 1 - t0)
			e.dist[p.slot] = p.exit - p.x
		}
	}
	// A packet only ever reads links inside its own path and diagonals
	// at or above the one it starts on. So each packet marks only what
	// some packet placed after it can read; the last marks nothing.
	lo, hi, g := int32(links), int32(0), int32(math.MaxInt32)
	for i := len(pk) - 1; i >= 0; i-- {
		p := &pk[i]
		p.lo, p.hi, p.g = lo, hi, g
		lo, hi, g = min(lo, p.x), max(hi, p.exit), min(g, p.u-p.x+int32(links)-1)
	}
	var drain int64
	for i := range pk {
		p := &pk[i]
		last, runs := e.lnPlace(links, p)
		c := t0 + int64(last)
		e.lnLeave(l, r, int(p.exit)-1, p.slot, e.dist[p.slot]-(p.exit-p.x), c)
		drain = max(drain, c)
		e.execs = max(e.execs, int64(runs))
	}
	e.lnPk = pk
	e.lnClear(links)
	return drain
}

// lnClear returns both views to all-zero after a line of the given
// number of links. A view whose marked words lie in a range no longer
// than the hops marked into it is cleared as that range; otherwise its
// runs are replayed, so clearing costs no more than marking did.
func (e *Engine[T]) lnClear(links int) {
	if len(e.lnRuns) == 0 {
		return
	}
	dw := (links + 63) >> 6
	hops, gLo, gHi := 0, math.MaxInt, 0
	lhops, top := 0, 0 // over the runs copied into the link view
	for i, run := range e.lnRuns {
		g, x, y := lnRunOf(run)
		hops += y - x
		gLo, gHi = min(gLo, g), max(gHi, g)
		if i < e.lnFlushed {
			lhops, top = lhops+y-x, max(top, g+y-links)
		}
	}
	diag := (gHi-gLo+1)*dw <= hops
	link := (top>>6+1)*links <= lhops
	if diag {
		clear(e.dBits[gLo*dw : min((gHi+1)*dw, len(e.dBits))])
	}
	if link {
		clear(e.lBits[:min((top>>6+1)*links, len(e.lBits))])
	}
	for i, run := range e.lnRuns {
		flushed := i < e.lnFlushed
		if diag && (link || !flushed) {
			break
		}
		g, x, y := lnRunOf(run)
		for wi := x >> 6; !diag && wi<<6 < y; wi++ {
			e.dBits[g*dw+wi] = 0
		}
		for u := g + x - links + 1; !link && flushed && x < y; {
			n := min(y-x, 64-u&63)
			w := (u>>6)*links + x
			clear(e.lBits[w : w+n])
			x, u = x+n, u+n
		}
	}
	e.lnRuns, e.lnFlushed = e.lnRuns[:0], 0
}

// lnRunOf unpacks a marked run: links x … y−1 on diagonal g.
func lnRunOf(run uint64) (g, x, y int) {
	return int(run >> 32), int(run >> 16 & 0xffff), int(run & 0xffff)
}

// lnPacket is one packet of a mesh line being solved: its slot, start
// and exit positions and the relative cycle it is ready to move, and
// the reach of the packets placed after it: the lowest start, the
// highest exit and the lowest starting diagonal among them.
type lnPacket struct {
	slot, x, exit, u int32
	lo, hi, g        int32
}

// lnPlace schedules packet p on a mesh line of the given number of
// links: it is ready to cross link p.x at relative cycle p.u and leaves
// the line after crossing link p.exit−1. It returns the relative cycle
// of its last hop and how many free runs it made. The links and cycles
// it takes inside the reach of later packets are kept in two views:
//
//   - dBits, per diagonal g = u − x + links − 1, a bitset over links:
//     a packet that never waits stays on one diagonal, so its run up to
//     the first taken link is one scan of that diagonal's words;
//   - lBits, per link, a bitset over cycles, word w of link x at
//     w·links + x: a blocked packet finds its next free cycle in one
//     scan, however long it waits.
//
// Each free run after the first follows a wait of at least one cycle
// and takes at least one hop, so the runs never exceed the packet's
// last hop cycle.
func (e *Engine[T]) lnPlace(links int, p *lnPacket) (last, runs int) {
	dw := (links + 63) >> 6
	x, exit, u := int(p.x), int(p.exit), int(p.u)
	for {
		runs++
		g := u - x + links - 1
		y := e.lnDiagFirst(g*dw, x, exit)
		if a, b := max(x, int(p.lo)), min(y, int(p.hi)); a < b && g >= int(p.g) {
			e.lnMark(g, dw, a, b)
		}
		u += y - x
		if y == exit {
			return u - 1, runs
		}
		x = y
		if e.lnFlushed < len(e.lnRuns) {
			e.lnFlush(links)
		}
		u = e.lnLinkFree(links, x, u+1) // link x is taken at cycle u
	}
}

// lnDiagFirst returns the first taken link in [x, exit) on the diagonal
// whose words start at dBits[base], or exit when there is none. Words
// past the end of dBits are all zero.
func (e *Engine[T]) lnDiagFirst(base, x, exit int) int {
	for wi := x >> 6; wi<<6 < exit; wi++ {
		if base+wi >= len(e.dBits) {
			break
		}
		w := e.dBits[base+wi]
		if wi == x>>6 {
			w &= ^uint64(0) << (x & 63)
		}
		if w != 0 {
			return min(wi<<6|bits.TrailingZeros64(w), exit)
		}
	}
	return exit
}

// lnMark records that a packet crossed links x … y−1 on diagonal g (dw
// words each), and keeps the run for the link view and for clearing.
func (e *Engine[T]) lnMark(g, dw, x, y int) {
	e.lnRuns = append(e.lnRuns, uint64(g)<<32|uint64(x)<<16|uint64(y))
	base := g * dw
	e.dBits = growZero(e.dBits, base+((y-1)>>6)+1)
	for wi := x >> 6; wi<<6 < y; wi++ {
		m := ^uint64(0)
		if wi == x>>6 {
			m <<= x & 63
		}
		if hi := y - wi<<6; hi < 64 {
			m &= 1<<hi - 1
		}
		e.dBits[base+wi] |= m
	}
}

// lnLinkFree returns the first relative cycle at or after u at which
// link x is free. The caller has flushed every marked run into the link
// view.
func (e *Engine[T]) lnLinkFree(links, x, u int) int {
	for w := u >> 6; ; w++ {
		i := w*links + x
		if i >= len(e.lBits) {
			return max(u, w<<6)
		}
		free := ^e.lBits[i]
		if w == u>>6 {
			free &= ^uint64(0) << (u & 63)
		}
		if free != 0 {
			return w<<6 | bits.TrailingZeros64(free)
		}
	}
}

// lnFlush copies the runs marked since the last flush into the link
// view: a run over links x … y−1 on diagonal g took link z at relative
// cycle g + z − links + 1. The link view is read only by lnLinkFree,
// after a flush, so a line on which no packet ever waits never builds
// it.
func (e *Engine[T]) lnFlush(links int) {
	for _, run := range e.lnRuns[e.lnFlushed:] {
		g, x, y := lnRunOf(run)
		u := g + x - links + 1
		e.lBits = growZero(e.lBits, ((u+y-x-1)>>6+1)*links)
		for x < y {
			n := min(y-x, 64-u&63) // hops before the cycle leaves this word
			i := (u>>6)*links + x
			b := uint64(1) << (u & 63)
			row := e.lBits[i : i+n]
			for k := range row {
				row[k] |= b
				b <<= 1
			}
			x, u = x+n, u+n
		}
	}
	e.lnFlushed = len(e.lnRuns)
}

// growZero returns s with length at least n. Elements past len(s) are
// zero: they were never set, or were cleared.
func growZero(s []uint64, n int) []uint64 {
	switch {
	case n <= len(s):
		return s
	case n <= cap(s):
		return s[:n]
	}
	return append(s, make([]uint64, n-len(s))...)
}

// injectLines drains items into the slab like inject, but files packets
// by line instead of by node: the slots of region row i are
// e.rowAt[i]:e.rowAt[i+1] (injection is row-major), and the column
// entries are counted per column line so e.colq can be cut into one
// bucket per line. Packets that start in their destination column enter
// their bucket now, at cycle 0. A slot's from field holds its
// region-local origin node.
func (e *Engine[T]) injectLines(delivered [][]T, r mesh.Region, items [][]T, dest func(T) int) {
	m := e.m
	e.resetSlab()
	e.rowAt = resize(e.rowAt, r.H+1)
	e.colAt = resize(e.colAt, 2*r.W+1)
	clear(e.colAt)
	for row := 0; row < r.H; row++ {
		e.rowAt[row] = int32(len(e.val))
		for col := 0; col < r.W; col++ {
			p := m.IDOf(r.R0+row, r.C0+col)
			for _, v := range items[p] {
				d := e.target(v, dest, r)
				if d == p {
					delivered[p] = append(delivered[p], v)
					continue
				}
				dr := e.push(v, p, d, false, int32(row*r.W+col))
				if m.RowOf(d) != m.RowOf(p) {
					vd := dr
					if dr <= 1 {
						vd = rowDirAfterCol(m, p, d, false)
					}
					e.colAt[2*(m.ColOf(d)-r.C0)+int(vd-2)+1]++
				}
			}
			items[p] = items[p][:0]
		}
	}
	e.rowAt[r.H] = int32(len(e.val))
	// colAt[k] becomes the start of column line k's bucket and then its
	// fill cursor; once filled it is the bucket's end.
	for k := 1; k <= 2*r.W; k++ {
		e.colAt[k] += e.colAt[k-1]
	}
	e.colq = resize(e.colq, int(e.colAt[2*r.W]))
	for slot, dr := range e.dir {
		if dr >= 2 {
			k := 2*(int(e.dcol[slot])-r.C0) + int(dr-2)
			e.colq[e.colAt[k]] = uint64(slot)
			e.colAt[k]++
		}
	}
}

// lnLeave takes the packet in slot off the line at its exit, reached in
// cycle c by a hop from line position x, with dist hops still to go. A
// packet whose distance ran out is delivered: its dist, from and dir
// fields are free from now on and keep its delivery key (cycle, sender,
// final direction) for deliverLines. Any other packet has finished its
// horizontal leg and joins the bucket of its column line, entering at
// cycle c.
func (e *Engine[T]) lnLeave(l *engLine, r mesh.Region, x int, slot, dist int32, c int64) {
	if dist > 0 {
		e.dist[slot] = dist
		dc := int(e.dcol[slot])
		turn := e.m.IDOf(r.R0+int(e.from[slot])/r.W, dc)
		vd := rowDirAfterCol(e.m, turn, int(e.dests[slot]), false)
		k := 2*(dc-r.C0) + int(vd-2)
		e.colq[e.colAt[k]] = uint64(c)<<32 | uint64(uint32(slot))
		e.colAt[k]++
		return
	}
	e.dist[slot], e.from[slot], e.dir[slot] = int32(c), l.node(x), l.dir
}

// deliverLines appends every routed packet to its destination in
// delivery-key order: a counting sort groups the slots by destination, and each
// group, a handful of packets, is sorted by its key (cycle, sender,
// final direction). The key is unique: a node sends at most one packet
// per direction per cycle.
func (e *Engine[T]) deliverLines(delivered [][]T, r mesh.Region) {
	size := r.H * r.W
	cnt := resize(e.dcnt, size+1)
	clear(cnt)
	for _, d := range e.dests {
		cnt[e.localOf(int(d), r)+1]++
	}
	for i := 1; i <= size; i++ {
		cnt[i] += cnt[i-1]
	}
	ord := resize(e.dorder, len(e.val))
	for slot, d := range e.dests {
		lp := e.localOf(int(d), r)
		ord[cnt[lp]] = int32(slot)
		cnt[lp]++
	}
	key := func(s int32) uint64 {
		return uint64(e.dist[s])<<32 | uint64(e.from[s])<<2 | uint64(e.dir[s])
	}
	lo := int32(0)
	for lp := 0; lp < size; lp++ {
		hi := cnt[lp]
		if hi == lo {
			continue
		}
		g := ord[lo:hi]
		lo = hi
		slices.SortFunc(g, func(a, b int32) int { return cmp.Compare(key(a), key(b)) })
		p := e.absOf(lp, r)
		for _, s := range g {
			delivered[p] = append(delivered[p], e.val[s])
		}
	}
	e.dcnt, e.dorder = cnt, ord
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Reused elements keep their old values.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
