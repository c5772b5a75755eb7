package faultview

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"meshpram/internal/fault"
)

// tickFullScan is the reference gossip round: every node merges every
// usable neighbor's previous-round knowledge, with no frontier. Tick
// must match it exactly — knowledge rows, learn order and counters,
// belief rebuilds and the Quiet flag.
func (v *View) tickFullScan(truth *fault.Map) {
	v.round++
	if len(v.log) == 0 {
		return
	}
	for p := 0; p < v.n; p++ {
		copy(v.next[p], v.known[p])
		if truth.NodeDead(p) {
			continue
		}
		for _, q := range v.nbs[p] {
			if truth.NodeDead(q) || !truth.LinkUp(p, q) {
				continue
			}
			src, dst := v.known[q], v.next[p]
			for i := range dst {
				dst[i] |= src[i]
			}
		}
	}
	v.known, v.next = v.next, v.known
	for p := 0; p < v.n; p++ {
		learned := false
		for w := 0; w < v.words; w++ {
			diff := v.known[p][w] &^ v.next[p][w]
			for diff != 0 {
				idx := w<<6 + bits.TrailingZeros64(diff)
				diff &= diff - 1
				v.learn(p, idx)
				learned = true
			}
		}
		if learned {
			v.rebuildBelief(p)
		}
	}
	v.recomputeQuiet(truth)
}

// edgeNeighbor returns the right (dir 0) or lower (dir 1) neighbor of
// p, wrapping on the torus, or -1 when the mesh has no such edge.
func edgeNeighbor(side int, wrap bool, p, dir int) int {
	r, c := p/side, p%side
	if side < 2 {
		return -1
	}
	if dir == 0 {
		if c+1 < side {
			return p + 1
		}
		if wrap {
			return r * side
		}
		return -1
	}
	if r+1 < side {
		return p + side
	}
	if wrap {
		return c
	}
	return -1
}

// fingerprint hashes everything routing can observe of a belief built
// from an empty base map: the state of each component the log names.
func fingerprint(log []Notice, f *fault.Map) uint64 {
	var h uint64
	mix := func(x uint64) { h = splitmix64(h ^ x) }
	for _, nt := range log {
		var b uint64
		if f.NodeDead(nt.P) {
			b |= 1
		}
		if f.ModuleDead(nt.P) {
			b |= 2
		}
		if isLinkKind(nt.Kind) {
			if f.LinkUp(nt.P, nt.Q) {
				b |= 4
			}
			b |= uint64(f.LinkDelay(nt.P, nt.Q)) << 3
		}
		mix(b)
	}
	return h
}

// oracle drives a frontier view and a full-scan reference view through
// the same event sequence and compares them after every round.
type oracle struct {
	t            testing.TB
	side         int
	wrap         bool
	rng          *rand.Rand
	truth        *fault.Map
	fv, ref      *View
	saveF, saveR *Image
	label        string
}

func newOracle(t testing.TB, side int, wrap bool, seed int64) *oracle {
	truth := fault.NewMap(side)
	return &oracle{
		t: t, side: side, wrap: wrap, rng: rand.New(rand.NewSource(seed)),
		truth: truth,
		fv:    New(side, wrap, nil, seed),
		ref:   New(side, wrap, nil, seed),
		label: fmt.Sprintf("side=%d wrap=%v seed=%d", side, wrap, seed),
	}
}

func (o *oracle) node() int { return o.rng.Intn(o.side * o.side) }

// link picks a random topology edge, or ok=false when the mesh has none.
func (o *oracle) link() (p, q int, ok bool) {
	for try := 0; try < 8; try++ {
		p = o.node()
		if q = edgeNeighbor(o.side, o.wrap, p, o.rng.Intn(2)); q >= 0 {
			return p, q, true
		}
	}
	return 0, 0, false
}

// event applies one truth change and lets both views witness it.
func (o *oracle) event(ev fault.Event) {
	o.truth.Apply(ev)
	o.fv.ObserveEvent(ev, o.truth)
	o.ref.ObserveEvent(ev, o.truth)
	o.compare("after " + ev.Kind.String())
}

// step performs the operation selected by op.
func (o *oracle) step(op byte) {
	switch op % 12 {
	case 0:
		o.event(fault.Event{Kind: fault.EvKillNode, P: o.node()})
	case 1:
		o.event(fault.Event{Kind: fault.EvReviveNode, P: o.node()})
	case 2:
		o.event(fault.Event{Kind: fault.EvKillModule, P: o.node()})
	case 3:
		o.event(fault.Event{Kind: fault.EvReviveModule, P: o.node()})
	case 4, 5, 6, 7:
		p, q, ok := o.link()
		if !ok {
			return
		}
		kind := []fault.EventKind{fault.EvKillLink, fault.EvReviveLink, fault.EvSlowLink, fault.EvHealLink}[op%12-4]
		ev := fault.Event{Kind: kind, P: p, Q: q}
		if kind == fault.EvSlowLink {
			ev.Factor = 2 + o.rng.Intn(4)
		}
		o.event(ev)
	case 8:
		// Discoveries (no truth change): a batch with duplicates.
		var discs []Discovery
		for i := 1 + o.rng.Intn(4); i > 0; i-- {
			d := Discovery{Witness: o.node()}
			switch o.rng.Intn(3) {
			case 0:
				d.Kind, d.P = fault.EvKillNode, o.node()
			case 1:
				d.Kind, d.P = fault.EvKillModule, o.node()
			default:
				p, q, ok := o.link()
				if !ok {
					d.Kind, d.P = fault.EvReviveNode, o.node()
					break
				}
				d.Kind, d.P, d.Q = fault.EvKillLink, p, q
			}
			discs = append(discs, d, d)
		}
		o.fv.Integrate(slices.Clone(discs), o.truth)
		o.ref.Integrate(discs, o.truth)
		o.compare("after Integrate")
	case 9:
		// A new truth map with the same contents.
		o.truth = o.truth.Clone()
		o.tick(1)
	case 10:
		// Snapshot, or roll both views back to the last snapshot.
		if o.saveF == nil || o.rng.Intn(2) == 0 {
			f, r := o.fv.Image(), o.ref.Image()
			o.saveF, o.saveR = &f, &r
			return
		}
		if err := o.fv.Restore(*o.saveF, o.truth); err != nil {
			o.t.Fatal(err)
		}
		if err := o.ref.Restore(*o.saveR, o.truth); err != nil {
			o.t.Fatal(err)
		}
		o.compare("after Restore")
	default:
		k := 1 + o.rng.Intn(o.side+1)
		if op&0x80 != 0 {
			o.tickBatch(k)
		} else {
			o.tick(k)
		}
	}
}

// tickBatch runs k rounds on the frontier view in one TickN call and
// compares once, after the last round.
func (o *oracle) tickBatch(k int) {
	o.fv.TickN(o.truth, int64(k))
	for i := 0; i < k; i++ {
		o.ref.tickFullScan(o.truth)
	}
	o.compare(fmt.Sprintf("TickN to round %d", o.ref.Round()))
}

func (o *oracle) tick(k int) {
	for i := 0; i < k; i++ {
		o.fv.Tick(o.truth)
		o.ref.tickFullScan(o.truth)
		o.compare(fmt.Sprintf("round %d", o.ref.Round()))
	}
}

func (o *oracle) compare(at string) {
	o.t.Helper()
	fv, ref := o.fv, o.ref
	if fv.Quiet() != ref.Quiet() {
		o.t.Fatalf("%s %s: Quiet %v, full scan %v", o.label, at, fv.Quiet(), ref.Quiet())
	}
	if fv.Stats() != ref.Stats() {
		o.t.Fatalf("%s %s: Stats %+v, full scan %+v", o.label, at, fv.Stats(), ref.Stats())
	}
	if !slices.Equal(fv.log, ref.log) {
		o.t.Fatalf("%s %s: notice logs differ", o.label, at)
	}
	seen := false
	for _, nt := range fv.log {
		seen = seen || isNetworkKind(nt.Kind)
	}
	if fv.NetworkFaultSeen() != seen {
		o.t.Fatalf("%s %s: NetworkFaultSeen %v, log holds a node or link notice: %v",
			o.label, at, fv.NetworkFaultSeen(), seen)
	}
	if fv.words != ref.words {
		o.t.Fatalf("%s %s: %d knowledge words, full scan %d", o.label, at, fv.words, ref.words)
	}
	memoF, memoRef := map[*fault.Map]uint64{}, map[*fault.Map]uint64{}
	for p := 0; p < fv.n; p++ {
		if !slices.Equal(fv.known[p][:fv.words], ref.known[p][:ref.words]) {
			o.t.Fatalf("%s %s: node %d knows %x, full scan %x", o.label, at, p, fv.known[p], ref.known[p])
		}
		if a, b := o.fp(memoF, fv.BeliefAt(p)), o.fp(memoRef, ref.BeliefAt(p)); a != b {
			o.t.Fatalf("%s %s: node %d belief differs from the full scan", o.label, at, p)
		}
	}
}

func (o *oracle) fp(memo map[*fault.Map]uint64, f *fault.Map) uint64 {
	h, ok := memo[f]
	if !ok {
		h = fingerprint(o.ref.log, f)
		memo[f] = h
	}
	return h
}

// TestTickFrontierMatchesFullScan drives seeded event sequences — node,
// link and module transitions, discoveries through Integrate, truth map
// replacement, snapshot rollbacks and gossip rounds, one at a time or
// batched through TickN — through a
// frontier view and the full-scan reference, on the mesh and the torus,
// and requires identical knowledge, stats, Quiet flags and beliefs
// after every event and every round.
func TestTickFrontierMatchesFullScan(t *testing.T) {
	for _, side := range []int{1, 2, 3, 9, 27} {
		seeds, ops := int64(3), 300
		if side == 27 {
			seeds, ops = 1, 100
		}
		for _, wrap := range []bool{false, true} {
			for seed := int64(1); seed <= seeds; seed++ {
				o := newOracle(t, side, wrap, seed*101+int64(side))
				for i := 0; i < ops; i++ {
					o.step(byte(o.rng.Intn(256)))
				}
				// Let every notice settle, then check the quiet state too.
				o.tick(2 * side)
			}
		}
	}
}

// FuzzTickOracle is the frontier-vs-full-scan comparison over arbitrary
// operation sequences.
func FuzzTickOracle(f *testing.F) {
	f.Add(int64(1), uint8(3), false, []byte{0, 11, 8, 11, 1, 11})
	f.Add(int64(7), uint8(9), true, []byte{4, 11, 5, 11, 6, 8, 11, 10, 0, 11, 10, 11})
	f.Add(int64(3), uint8(2), true, []byte{4, 0, 11, 9, 11, 1, 11})
	f.Add(int64(5), uint8(1), false, []byte{1, 2, 3, 8, 11})
	f.Fuzz(func(t *testing.T, seed int64, sidePick uint8, wrap bool, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		side := []int{1, 2, 3, 5, 9}[int(sidePick)%5]
		o := newOracle(t, side, wrap, seed)
		for _, op := range ops {
			o.step(op)
		}
		o.tick(2 * side)
	})
}
