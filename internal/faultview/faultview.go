// Package faultview gives every mesh node a *local* fault view updated
// only by deterministic hop-neighbor gossip, replacing the omniscient
// global fault map the routers consulted before.
//
// The world state (the live fault.Map the schedule mutates) stays the
// single source of physical truth: links fail and packets are lost
// according to it. What changes is *knowledge*: a fault transition is
// witnessed by one node (the component itself on revival, a seeded
// adjacent survivor on death), packaged as a versioned Notice with a
// per-origin monotone sequence number, and flooded one hop per gossip
// round — one round per charged routing cycle plus one per protocol
// step boundary. The cycle loop runs a round after each sweep; a route
// the line solver takes (no network fault anywhere in truth or view)
// runs the same rounds after it, batched by TickN. Until the notice
// reaches a node, that node routes,
// injects and repairs against its stale belief: packets are sent into
// dead components (charged as losses), detours are planned around
// links that already healed, and the scrub coordinator cannot start a
// repair it has not heard about.
//
// Determinism: rounds are synchronous and double-buffered (each node
// merges the *previous* round's neighbor knowledge, so exchange order
// is irrelevant), peers are visited in sorted order, witness ties are
// broken by a seeded splitmix64 hash, and in-flight discoveries are
// integrated after each sweep in sorted, deduplicated order. The
// result is bit-identical across double runs; the identity matrices in
// internal/route and internal/core pin it.
package faultview

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"meshpram/internal/fault"
)

// Mode selects how routers and the repair coordinator learn about
// faults.
type Mode uint8

const (
	// Global is the historical behavior: every component consults the
	// live fault map directly, with zero propagation latency.
	Global Mode = iota
	// Local gives each node a gossip-updated local view; knowledge
	// propagates one hop per round and decisions may be stale.
	Local
)

func (m Mode) String() string {
	switch m {
	case Global:
		return "global"
	case Local:
		return "local"
	}
	return "invalid"
}

// ParseMode parses the CLI/scenario spelling of a Mode ("" = global).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "global":
		return Global, nil
	case "local":
		return Local, nil
	}
	return 0, fmt.Errorf("unknown fault view %q (want global or local)", s)
}

// Discovery is an in-flight observation made by the router: a packet at
// node Witness probed a component and found its physical state to
// disagree with the witness's belief. Discoveries are collected during
// the selection sweep and handed to Integrate after it; Integrate sorts
// and deduplicates them, so the notice log is independent of the order
// the sweep found them in.
type Discovery struct {
	Witness int // node that made the observation
	Kind    fault.EventKind
	P, Q    int // component ids; Q only for link kinds
	Factor  int // slow factor for slow-link discoveries
}

// Stats is the observability snapshot of a view for ledgers and the
// GOSSIP experiment.
type Stats struct {
	Round    int64    // gossip rounds elapsed
	Notices  int64    // notices created (schedule witnesses + discoveries)
	Sent     int64    // notice receptions over gossip edges
	Applied  int64    // notice applications to local beliefs
	StaleMax int64    // largest observed staleness (rounds from creation to application)
	Hist     [8]int64 // staleness histogram, bucket i holds staleness in [2^i-1, 2^(i+1)-1)
	Quiet    bool     // every live node knows the full log
}

// Image is the serializable state of a View for snapshots. Beliefs are
// not stored: they are a pure function of (base map, log, known sets)
// and are rebuilt on Restore.
type Image struct {
	Log      []Notice
	Seq      []int
	Known    [][]uint64
	Round    int64
	Created  int64
	Sent     int64
	Applied  int64
	StaleMax int64
	Hist     [8]int64
}

// View holds every node's local fault belief plus the shared notice
// log and per-node knowledge bitsets. One View is shared by the main
// and repair routing engines of a simulator; all methods are called
// between sweeps, never from inside one.
type View struct {
	side, n int
	wrap    bool
	seed    int64

	base *fault.Map // shared knowledge at round 0 (static pre-step faults)
	full *fault.Map // base + every notice applied (the quiet-state belief)

	// netSeen is set once base or a logged notice holds a node or link
	// fault (dead node, dead link or slow link). Until then no belief
	// can block a hop.
	netSeen bool

	log   []Notice
	seq   []int      // per-node next sequence number
	known [][]uint64 // per-node bitset over log indices
	next  [][]uint64 // double buffer for Tick
	count []int      // popcount of known[p]
	words int        // uint64 words per bitset row

	// belief[p] is node p's materialized belief (base + known notices
	// in log order), or nil when it is shared copy-on-write: a node
	// that knows nothing believes `base`, a node that knows the whole
	// log believes `full`. When the log grows past a set of fully
	// caught-up nodes, they are pointed at one shared prefix clone
	// (owned[p] = false) instead of each cloning the map. Only the
	// gossip wavefront ever owns a clone, which keeps resident belief
	// state O(wavefront) instead of the old O(n²) of n full clones.
	belief []*fault.Map
	owned  []bool // belief[p] is p's private clone (safe to mutate)

	nbs [][]int // sorted gossip neighbors per node

	// Frontier gossip (DESIGN.md §13). front holds, ascending, the nodes
	// whose knowledge grew since the last exchange: in the last round, or
	// as the witness of a new notice. Only their neighbors (cand, marked
	// in mark while collected) can learn anything next round. A change
	// of the truth's node or link liveness (a new truth map, or a new
	// truth.Gen()) and a Restore re-seed one full round instead.
	front   []int32
	cand    []int32
	mark    []bool
	seen    *fault.Map // truth of the last exchange
	seenGen uint64     // seen.Gen() at the last exchange
	reseed  bool       // the next round must visit every node

	round int64
	quiet bool

	created, sent, applied int64
	staleMax               int64
	hist                   [8]int64
}

// New builds a view for a side×side mesh. base is the static fault map
// in effect before the first step — modeled as knowledge every node
// starts with (the machine was assembled around those faults). wrap
// adds the torus wrap edges to the gossip topology. seed drives
// witness tie-breaks only.
func New(side int, wrap bool, base *fault.Map, seed int64) *View {
	if side < 1 {
		panic(fmt.Sprintf("faultview: side %d must be ≥ 1", side))
	}
	n := side * side
	v := &View{
		side: side, n: n, wrap: wrap, seed: seed,
		base:   base.Clone(),
		seq:    make([]int, n),
		known:  make([][]uint64, n),
		next:   make([][]uint64, n),
		count:  make([]int, n),
		belief: make([]*fault.Map, n),
		owned:  make([]bool, n),
		nbs:    make([][]int, n),
		mark:   make([]bool, n),
		quiet:  true,
		reseed: true,
	}
	if v.base == nil {
		v.base = fault.NewMap(side)
	}
	v.full = v.base.Clone()
	v.netSeen = !v.base.NetworkHealthy()
	for p := 0; p < n; p++ {
		v.nbs[p] = neighbors(side, wrap, p)
	}
	return v
}

// neighbors returns the sorted, deduplicated gossip peers of p.
func neighbors(side int, wrap bool, p int) []int {
	r, c := p/side, p%side
	var out []int
	add := func(q int) {
		for _, x := range out {
			if x == q {
				return
			}
		}
		out = append(out, q)
	}
	if wrap && side > 1 {
		add(r*side + (c+side-1)%side)
		add(r*side + (c+1)%side)
		add(((r+side-1)%side)*side + c)
		add(((r+1)%side)*side + c)
	} else {
		if c > 0 {
			add(p - 1)
		}
		if c+1 < side {
			add(p + 1)
		}
		if r > 0 {
			add(p - side)
		}
		if r+1 < side {
			add(p + side)
		}
	}
	sort.Ints(out)
	return out
}

// BeliefAt returns node p's current local belief. The returned map is
// owned by the view (and may be shared between nodes with identical
// knowledge); callers must not mutate it.
func (v *View) BeliefAt(p int) *fault.Map {
	if b := v.belief[p]; b != nil {
		return b
	}
	if v.count[p] == len(v.log) {
		return v.full
	}
	return v.base
}

// materialize gives node p an owned belief clone, seeded from whichever
// shared map its knowledge currently equals. Callers mutate the result.
func (v *View) materialize(p int) *fault.Map {
	if v.belief[p] == nil {
		if v.count[p] == len(v.log) {
			v.belief[p] = v.full.Clone()
		} else {
			v.belief[p] = v.base.Clone()
		}
	} else if !v.owned[p] {
		v.belief[p] = v.belief[p].Clone()
	}
	v.owned[p] = true
	return v.belief[p]
}

// setShared points node p at a shared belief map it must not mutate.
func (v *View) setShared(p int, bel *fault.Map) {
	v.belief[p] = bel
	v.owned[p] = false
}

// KnownAt reports whether node p has learned notice idx of the log.
func (v *View) KnownAt(p, idx int) bool {
	if idx < 0 || idx >= len(v.log) {
		return false
	}
	return v.known[p][idx>>6]&(1<<(idx&63)) != 0
}

// NetworkFaultSeen reports whether the view has ever held a node or
// link fault — a dead node, dead link or slow link — in its base map or
// in a logged notice. While it has not, every node's belief leaves
// every link usable on every cycle. A node killed and revived again
// counts: nodes that heard only the kill may still believe it dead.
// O(1).
func (v *View) NetworkFaultSeen() bool { return v.netSeen }

// Stats returns the observability counters.
func (v *View) Stats() Stats {
	return Stats{
		Round: v.round, Notices: v.created, Sent: v.sent, Applied: v.applied,
		StaleMax: v.staleMax, Hist: v.hist, Quiet: v.quiet,
	}
}

// splitmix64 is the seeded tie-break hash (no package-level rand: the
// view must be a pure function of its inputs).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick selects one candidate by the seeded hash of the salt.
func (v *View) pick(cands []int, salt uint64) int {
	h := splitmix64(uint64(v.seed) ^ salt)
	return cands[h%uint64(len(cands))]
}

// ObserveEvent routes a schedule event to its witness node and creates
// the corresponding notice. The rules model local observability:
//
//   - a node death is witnessed by a seeded pick among its truth-alive
//     neighbors (the dead node cannot announce itself);
//   - a node revival is announced by the revived node;
//   - a module transition is witnessed by its own node if alive, else a
//     seeded alive neighbor;
//   - a link transition is witnessed by an alive endpoint (seeded pick
//     when both are alive).
//
// truth is the live map *after* the event was applied. When no live
// witness exists the event goes unnoticed — permanent staleness the
// callers must tolerate (documented in DESIGN.md §13). Returns the log
// index of the new notice and whether one was created.
func (v *View) ObserveEvent(ev fault.Event, truth *fault.Map) (int, bool) {
	var cands []int
	switch ev.Kind {
	case fault.EvKillNode:
		cands = v.aliveNeighbors(ev.P, truth)
	case fault.EvReviveNode:
		cands = []int{ev.P}
	case fault.EvKillModule, fault.EvReviveModule:
		if !truth.NodeDead(ev.P) {
			cands = []int{ev.P}
		} else {
			cands = v.aliveNeighbors(ev.P, truth)
		}
	case fault.EvKillLink, fault.EvReviveLink, fault.EvSlowLink, fault.EvHealLink:
		if !truth.NodeDead(ev.P) {
			cands = append(cands, ev.P)
		}
		if !truth.NodeDead(ev.Q) {
			cands = append(cands, ev.Q)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	salt := uint64(ev.Kind)<<40 ^ uint64(ev.P)<<20 ^ uint64(ev.Q) ^ uint64(v.round)<<48
	w := v.pick(cands, salt)
	idx := v.createNotice(w, ev.Kind, ev.P, ev.Q, ev.Factor, truth)
	return idx, true
}

func (v *View) aliveNeighbors(p int, truth *fault.Map) []int {
	var out []int
	for _, q := range v.nbs[p] {
		if !truth.NodeDead(q) {
			out = append(out, q)
		}
	}
	return out
}

// Integrate folds the sweep's in-flight discoveries into the log after
// the sweep. Discoveries are sorted and deduplicated first, and one is
// dropped when the witness's belief already agrees with it — together
// this makes the resulting log independent of discovery order and of
// how many packets probed the same component. Returns the number of
// notices created.
func (v *View) Integrate(discs []Discovery, truth *fault.Map) int {
	if len(discs) == 0 {
		return 0
	}
	sort.Slice(discs, func(i, j int) bool {
		a, b := discs[i], discs[j]
		if a.Witness != b.Witness {
			return a.Witness < b.Witness
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.P != b.P {
			return a.P < b.P
		}
		if a.Q != b.Q {
			return a.Q < b.Q
		}
		return a.Factor < b.Factor
	})
	made := 0
	for i, d := range discs {
		if i > 0 && d == discs[i-1] {
			continue
		}
		if truth.NodeDead(d.Witness) {
			continue
		}
		if !v.wouldChange(v.BeliefAt(d.Witness), d) {
			continue
		}
		v.createNotice(d.Witness, d.Kind, d.P, d.Q, d.Factor, truth)
		made++
	}
	return made
}

// wouldChange reports whether applying the discovery to the belief
// changes any routing-visible state — the idempotence guard that keeps
// repeated probes of the same dead component from flooding the log.
func (v *View) wouldChange(bel *fault.Map, d Discovery) bool {
	switch d.Kind {
	case fault.EvKillNode:
		return !bel.NodeDead(d.P)
	case fault.EvReviveNode:
		return bel.NodeDead(d.P)
	case fault.EvKillModule:
		return !bel.ModuleDead(d.P)
	case fault.EvReviveModule:
		return bel.ModuleDead(d.P) && !bel.NodeDead(d.P)
	case fault.EvKillLink:
		return bel.LinkUp(d.P, d.Q)
	case fault.EvReviveLink:
		return !bel.LinkUp(d.P, d.Q) && !bel.NodeDead(d.P) && !bel.NodeDead(d.Q)
	case fault.EvSlowLink:
		return bel.LinkDelay(d.P, d.Q) != d.Factor
	case fault.EvHealLink:
		return bel.LinkDelay(d.P, d.Q) != 1
	}
	return false
}

// createNotice appends a notice witnessed by node w and applies it to
// w's belief immediately (the witness learns what it saw).
func (v *View) createNotice(w int, kind fault.EventKind, p, q, factor int, truth *fault.Map) int {
	// The log is about to grow: nodes that share `full` because they
	// know the complete current log would silently regress to `base`.
	// They all hold the same knowledge (the old log as a prefix), so
	// pin them to one shared snapshot of the pre-notice quiet belief.
	oldLen := len(v.log)
	if oldLen > 0 {
		var prefix *fault.Map
		for p := 0; p < v.n; p++ {
			if v.belief[p] == nil && v.count[p] == oldLen {
				if prefix == nil {
					prefix = v.full.Clone()
				}
				v.setShared(p, prefix)
			}
		}
	}
	// Materialize before the log grows: the clone must reflect w's
	// pre-notice knowledge (count relative to the old log length).
	bel := v.materialize(w)
	nt := Notice{Seq: v.seq[w], Origin: w, Round: v.round, Kind: kind, P: p, Q: q, Factor: factor}
	v.seq[w]++
	idx := len(v.log)
	v.log = append(v.log, nt)
	v.netSeen = v.netSeen || isNetworkKind(kind)
	v.growBitsets()
	v.known[w][idx>>6] |= 1 << (idx & 63)
	v.count[w]++
	if i, found := slices.BinarySearch(v.front, int32(w)); !found {
		v.front = slices.Insert(v.front, i, int32(w))
	}
	v.created++
	v.applied++
	bel.Apply(nt.Event())
	v.full.Apply(nt.Event())
	// The witness now knows the whole log again — fold its clone back
	// into the shared quiet-state belief.
	if v.count[w] == len(v.log) {
		v.setShared(w, nil)
	}
	v.recomputeQuiet(truth)
	return idx
}

// growBitsets widens every knowledge row to cover the log.
func (v *View) growBitsets() {
	need := (len(v.log) + 63) >> 6
	if need <= v.words {
		return
	}
	for p := 0; p < v.n; p++ {
		v.known[p] = append(v.known[p], make([]uint64, need-v.words)...)
		v.next[p] = append(v.next[p], make([]uint64, need-v.words)...)
	}
	v.words = need
}

// Tick runs one synchronous gossip round: every truth-alive node merges
// the previous round's knowledge of each truth-alive neighbor reachable
// over a truth-up link. Double buffering makes the merge order
// irrelevant; dead nodes neither send nor receive (their knowledge is
// frozen until revival); slow links carry gossip every round (notices
// are tiny control words, documented in DESIGN.md §13).
//
// A round visits only the neighbors of the frontier: a node none of
// whose neighbors' knowledge grew since the last exchange already holds
// everything they could send it. Node and link liveness changes break
// that argument for the newly usable edges, so they re-seed one round
// over every node. Learning, belief rebuilds and the Quiet flag are
// identical to a full scan every round.
func (v *View) Tick(truth *fault.Map) {
	v.round++
	if v.idle(truth) {
		return
	}
	cand := v.cand[:0]
	full := v.reseed || truth != v.seen || truth.Gen() != v.seenGen
	if full {
		v.reseed, v.seen, v.seenGen = false, truth, truth.Gen()
		for p := 0; p < v.n; p++ {
			cand = append(cand, int32(p))
		}
	} else {
		for _, f := range v.front {
			for _, q := range v.nbs[f] {
				if !v.mark[q] {
					v.mark[q] = true
					cand = append(cand, int32(q))
				}
			}
		}
		slices.Sort(cand)
		for _, p := range cand {
			v.mark[p] = false
		}
	}
	for _, pp := range cand {
		p := int(pp)
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
	// Swap in the new rows and account newly learned notices (old
	// knowledge now sits in next); the learners are the next frontier.
	front := v.front[:0]
	for _, pp := range cand {
		p := int(pp)
		v.known[p], v.next[p] = v.next[p], v.known[p]
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
			front = append(front, pp)
		}
	}
	v.cand, v.front = cand, front
	if full || len(front) > 0 {
		v.recomputeQuiet(truth)
	}
}

// idle reports whether a round over truth would change nothing but the
// round counter: the log is empty, or no frontier and no re-seed is
// pending and the truth's liveness is the one last exchanged.
func (v *View) idle(truth *fault.Map) bool {
	return len(v.log) == 0 ||
		(len(v.front) == 0 && !v.reseed && truth == v.seen && truth.Gen() == v.seenGen)
}

// TickN runs steps gossip rounds with the outcome of steps calls of
// Tick. Once the view is idle, the remaining rounds are added to the
// round counter at once.
func (v *View) TickN(truth *fault.Map, steps int64) {
	for ; steps > 0; steps-- {
		if v.idle(truth) {
			v.round += steps
			return
		}
		v.Tick(truth)
	}
}

func (v *View) learn(p, idx int) {
	v.count[p]++
	v.sent++
	v.applied++
	stale := v.round - v.log[idx].Round
	if stale > v.staleMax {
		v.staleMax = stale
	}
	b := bits.Len64(uint64(stale))
	if b >= len(v.hist) {
		b = len(v.hist) - 1
	}
	v.hist[b]++
}

// rebuildBelief recomputes node p's belief from the base map and p's
// known notices in log order — last-write-wins by log index, so a node
// that learns an old kill after a newer revive still converges to the
// newest state. Nodes whose knowledge is empty or complete share the
// base/full maps instead of owning a clone.
func (v *View) rebuildBelief(p int) {
	if v.count[p] == 0 || v.count[p] == len(v.log) {
		v.setShared(p, nil)
		return
	}
	bel := v.base.Clone()
	row := v.known[p]
	for i, nt := range v.log {
		if row[i>>6]&(1<<(i&63)) != 0 {
			bel.Apply(nt.Event())
		}
	}
	v.belief[p] = bel
	v.owned[p] = true
}

func (v *View) recomputeQuiet(truth *fault.Map) {
	total := len(v.log)
	for p := 0; p < v.n; p++ {
		if truth.NodeDead(p) {
			continue
		}
		if v.count[p] != total {
			v.quiet = false
			return
		}
	}
	v.quiet = true
}

// MemBytes returns the resident heap bytes of the view's per-node
// state: the notice log, knowledge bitsets and double buffer, gossip
// topology, frontier, candidate list and marks, and every distinct
// materialized belief map (shared prefix clones are counted once).
func (v *View) MemBytes() int64 {
	b := int64(len(v.log)) * 56 // Notice records
	b += int64(v.n) * int64(v.words) * 16
	b += int64(v.n) * (8 + 8 + 1 + 8 + 24*3)
	b += int64(cap(v.front)+cap(v.cand))*4 + int64(cap(v.mark))
	for _, nb := range v.nbs {
		b += int64(len(nb)) * 8
	}
	b += v.base.MemBytes() + v.full.MemBytes()
	seen := make(map[*fault.Map]bool, 8)
	for _, bel := range v.belief {
		if bel != nil && !seen[bel] {
			seen[bel] = true
			b += bel.MemBytes()
		}
	}
	return b
}

// Image captures the serializable view state for snapshots.
func (v *View) Image() Image {
	img := Image{
		Log:     append([]Notice(nil), v.log...),
		Seq:     append([]int(nil), v.seq...),
		Known:   make([][]uint64, v.n),
		Round:   v.round,
		Created: v.created, Sent: v.sent, Applied: v.applied,
		StaleMax: v.staleMax, Hist: v.hist,
	}
	for p := 0; p < v.n; p++ {
		img.Known[p] = append([]uint64(nil), v.known[p][:v.words]...)
	}
	return img
}

// Restore replaces the view state with a snapshot image; beliefs and
// derived state are rebuilt by replay. truth is the live fault map at
// restore time (the Quiet flag depends on which nodes are alive).
func (v *View) Restore(img Image, truth *fault.Map) error {
	if len(img.Seq) != v.n || len(img.Known) != v.n {
		return fmt.Errorf("faultview: snapshot for %d nodes, view has %d", len(img.Seq), v.n)
	}
	words := (len(img.Log) + 63) >> 6
	for p := 0; p < v.n; p++ {
		if len(img.Known[p]) != words {
			return fmt.Errorf("faultview: snapshot knowledge row %d has %d words, want %d", p, len(img.Known[p]), words)
		}
	}
	v.log = append(v.log[:0], img.Log...)
	v.seq = append(v.seq[:0], img.Seq...)
	v.words = words
	v.round = img.Round
	v.created, v.sent, v.applied = img.Created, img.Sent, img.Applied
	v.staleMax, v.hist = img.StaleMax, img.Hist
	v.full = v.base.Clone()
	v.netSeen = !v.base.NetworkHealthy()
	for _, nt := range v.log {
		v.full.Apply(nt.Event())
		v.netSeen = v.netSeen || isNetworkKind(nt.Kind)
	}
	for p := 0; p < v.n; p++ {
		v.known[p] = append(v.known[p][:0], img.Known[p]...)
		v.next[p] = make([]uint64, words)
		c := 0
		for _, w := range v.known[p] {
			c += bits.OnesCount64(w)
		}
		v.count[p] = c
		v.rebuildBelief(p)
	}
	// The image does not store the frontier: re-seed a full round.
	v.front = v.front[:0]
	v.reseed = true
	v.recomputeQuiet(truth)
	return nil
}
