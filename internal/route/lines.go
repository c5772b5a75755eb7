package route

import (
	"cmp"
	"math/bits"
	"slices"

	"meshpram/internal/mesh"
)

// Line-decomposed healthy routing (DESIGN.md §17).
//
// On a healthy mesh or torus every dimension-ordered path is one
// horizontal leg followed by one vertical leg, and sweep picks the
// winner of each (node, out-direction) on its own. A horizontal leg
// never uses a vertical link and a vertical leg never uses a horizontal
// one, so the cycle machine falls apart into independent one-dimensional
// pipelines:
//
//   - one per (row, horizontal direction), which every packet enters at
//     cycle 0 at its origin;
//   - one per (column, vertical direction), which a packet enters at the
//     cycle its horizontal leg ends (cycle 0 if it starts in its
//     destination column).
//
// routeLines simulates every row line, which fixes the entries of every
// column line, then every column line, and finally appends the
// deliveries in the order the cycle loop appends them: by cycle, then
// sender, then final direction.
// A line steps cycle by cycle only while some node on it holds two
// packets; otherwise its packets move in lockstep and it jumps to its
// next entry.

// A packet queued on a line is one uint64: its remaining distance in the
// top 16 bits, its complemented slot id in the next 32 and its exit
// position on the line in the low 16. Compared as integers, entries are
// ordered the way sweep selects — farthest remaining distance
// first, ties to the lower slot — so each position keeps its queue
// sorted ascending and its winner is the last entry. A hop subtracts
// lnHop.
const (
	lnHop = 1 << 48
	// lnMaxSide keeps every distance (< 2·line length) and position in
	// 16 bits; larger regions route with cycle sweeps.
	lnMaxSide = 1 << 15
)

func lnEntry(dist, slot int32, exit int) uint64 {
	return uint64(dist)<<48 | uint64(^uint32(slot))<<16 | uint64(exit)
}

func lnSlot(en uint64) int32 { return int32(^uint32(en >> 16)) }

func lnExit(en uint64) int { return int(en & 0xffff) }

// engLine is one pipeline of n nodes along a region row or column. Line
// positions run in hop order, so every hop goes from position i to i+1
// (to 0 from n−1 on the torus ring); on a line moving toward lower
// columns or rows the positions run against region order.
type engLine struct {
	n          int
	rev        bool // hops go −col or −row
	ring       bool
	base, step int  // region-local node at region index 0, and the stride
	dir        int8 // the direction every hop on the line takes
	crowded    int  // positions holding two or more packets
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
// iterations any single line ran.
func (e *Engine[T]) routeLines(delivered [][]T, r mesh.Region, items [][]T, dest func(T) int, topo topology, wrap bool) (steps int64) {
	e.injectLines(delivered, r, items, dest, topo, wrap)
	if n := max(r.H, r.W); len(e.lq) < n {
		e.lq = append(e.lq, make([][]uint64, n-len(e.lq))...)
		e.occ = make([]uint64, (n+63)>>6) // all-zero at rest by invariant
	}
	for row := 0; row < r.H; row++ {
		lo, hi := e.rowAt[row], e.rowAt[row+1]
		for d := int8(0); d <= 1; d++ {
			l := engLine{n: r.W, rev: d == 0, ring: wrap, base: row * r.W, step: 1, dir: d}
			queued := 0
			for slot := lo; slot < hi; slot++ {
				if e.dir[slot] != d {
					continue
				}
				x := l.at(int(e.from[slot]) - l.base)
				e.lnPush(&l, x, lnEntry(e.dist[slot], slot, l.at(int(e.dcol[slot])-r.C0)))
				queued++
			}
			if queued > 0 {
				steps = max(steps, e.runLine(&l, r, nil, queued))
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
			slices.Sort(pend) // entry-cycle order
			l := engLine{n: r.H, rev: k == 0, ring: wrap, base: col, step: r.W, dir: int8(2 + k)}
			steps = max(steps, e.runLine(&l, r, pend, 0))
		}
	}
	e.deliverLines(delivered, r)
	return steps
}

// injectLines drains items into the slab like inject, but files packets
// by line instead of by node: the slots of region row i are
// e.rowAt[i]:e.rowAt[i+1] (injection is row-major), and the column
// entries are counted per column line so e.colq can be cut into one
// bucket per line. Packets that start in their destination column enter
// their bucket now, at cycle 0. A slot's from field holds its
// region-local origin node.
func (e *Engine[T]) injectLines(delivered [][]T, r mesh.Region, items [][]T, dest func(T) int, topo topology, wrap bool) {
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
				dr := e.push(v, p, d, topo, int32(row*r.W+col))
				if m.RowOf(d) != m.RowOf(p) {
					vd := dr
					if dr <= 1 {
						vd = rowDirAfterCol(m, p, d, wrap)
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

// runLine simulates line l until it drains and returns the cycle its
// last packet left it. queued packets are already on its queues; pend
// holds the timed entries of a column line (entry cycle<<32 | slot,
// sorted), each joining at its origin row once its entry cycle has
// passed. While some position holds two or more packets, each
// iteration is one cycle: it moves the winner of every occupied
// position one hop, front of the pipeline first, so a packet lands on a
// position that has already sent this cycle; on the ring the winner
// leaving position n−1 is held back until position 0 has sent. Once no
// position does, one iteration runs the line up to its next entry
// (lnFreeRun). Executed counts iterations, so it is at most the cycle
// the line drains at.
func (e *Engine[T]) runLine(l *engLine, r mesh.Region, pend []uint64, queued int) int64 {
	q, occ := e.lq, e.occ[:(l.n+63)>>6]
	var c, iters int64
	for queued > 0 || len(pend) > 0 {
		if queued == 0 {
			c = int64(pend[0] >> 32) // idle line: skip to the next entry
		}
		for len(pend) > 0 && int64(pend[0]>>32) <= c {
			slot := int32(uint32(pend[0]))
			pend = pend[1:]
			start := l.at(int(e.from[slot]) / r.W)
			exit := l.at(e.m.RowOf(int(e.dests[slot])) - r.R0)
			e.lnPush(l, start, lnEntry(e.dist[slot], slot, exit))
			queued++
		}
		iters++
		if l.crowded == 0 {
			k := int64(-1)
			if len(pend) > 0 {
				k = int64(pend[0]>>32) - c
			}
			if k != 1 { // a one-cycle run costs more than the cycle
				last, left := e.lnFreeRun(l, r, c, k)
				queued -= left
				if k < 0 {
					c = last
				} else {
					c += k
				}
				continue
			}
		}
		c++
		var held uint64
		wrapped := false
		for wi := len(occ) - 1; wi >= 0; wi-- {
			for w := occ[wi]; w != 0; {
				b := bits.Len64(w) - 1
				w &^= 1 << b
				x := wi<<6 | b
				qx := q[x]
				en := qx[len(qx)-1] - lnHop
				q[x] = qx[:len(qx)-1]
				switch len(qx) {
				case 1:
					occ[wi] &^= 1 << b
				case 2:
					l.crowded--
				}
				if x+1 == l.n {
					held, wrapped = en, true
					continue
				}
				if e.lnArrive(l, r, x, x+1, en, c) {
					queued--
				}
			}
		}
		if wrapped && e.lnArrive(l, r, l.n-1, 0, held, c) {
			queued--
		}
	}
	e.execs = max(e.execs, iters)
	return c
}

// lnFreeRun advances a line on which no position holds two packets by k
// cycles from cycle c, or until it drains when k < 0. Lone packets all
// move every cycle, so they keep their distances and none can block
// another until a new entry joins: each packet leaves at its exit or
// lands k positions on. It returns the last cycle a packet left the line
// and how many left.
func (e *Engine[T]) lnFreeRun(l *engLine, r mesh.Region, c, k int64) (last int64, left int) {
	moved := e.lnMove[:0]
	for wi := range e.occ[:(l.n+63)>>6] {
		for w := e.occ[wi]; w != 0; w &= w - 1 {
			x := wi<<6 | bits.TrailingZeros64(w)
			en := e.lq[x][0]
			e.lq[x] = e.lq[x][:0]
			exit := lnExit(en)
			h := int64(exit - x)
			if h <= 0 {
				h += int64(l.n) // the exit lies past the ring's wrap
			}
			if k >= 0 && h > k {
				moved = append(moved, uint64((int64(x)+k)%int64(l.n)), en-uint64(k)*lnHop)
				continue
			}
			e.lnLeave(l, r, (exit+l.n-1)%l.n, en-uint64(h)*lnHop, c+h)
			last = max(last, c+h)
			left++
		}
		e.occ[wi] = 0
	}
	for i := 0; i < len(moved); i += 2 {
		e.lnPush(l, int(moved[i]), moved[i+1])
	}
	e.lnMove = moved[:0]
	return last, left
}

// lnArrive lands entry en, which hopped from line position x to nx in
// cycle c, and reports whether it left the line there.
func (e *Engine[T]) lnArrive(l *engLine, r mesh.Region, x, nx int, en uint64, c int64) bool {
	if nx != lnExit(en) {
		e.lnPush(l, nx, en)
		return false
	}
	e.lnLeave(l, r, x, en, c)
	return true
}

// lnLeave takes entry en off the line at its exit, reached in cycle c by
// a hop from line position x. A packet whose distance ran out is
// delivered: its dist, from and dir fields are free from now on and keep
// its delivery key (cycle, sender, final direction) for deliverLines. Any
// other packet has finished its horizontal leg and joins the bucket of
// its column line, entering at cycle c.
func (e *Engine[T]) lnLeave(l *engLine, r mesh.Region, x int, en uint64, c int64) {
	slot := lnSlot(en)
	if dist := int32(en >> 48); dist > 0 {
		e.dist[slot] = dist
		dc := int(e.dcol[slot])
		turn := e.m.IDOf(r.R0+int(e.from[slot])/r.W, dc)
		vd := rowDirAfterCol(e.m, turn, int(e.dests[slot]), l.ring)
		k := 2*(dc-r.C0) + int(vd-2)
		e.colq[e.colAt[k]] = uint64(c)<<32 | uint64(uint32(slot))
		e.colAt[k]++
		return
	}
	e.dist[slot], e.from[slot], e.dir[slot] = int32(c), l.node(x), l.dir
}

// lnPush inserts en into the queue at line position x, keeping it sorted.
func (e *Engine[T]) lnPush(l *engLine, x int, en uint64) {
	q := append(e.lq[x], en)
	i := len(q) - 1
	for i > 0 && q[i-1] > en {
		q[i] = q[i-1]
		i--
	}
	q[i] = en
	e.lq[x] = q
	e.occ[x>>6] |= 1 << (x & 63)
	if len(q) == 2 {
		l.crowded++
	}
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
