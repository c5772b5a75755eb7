// Package fault models static faults on the mesh machine and the
// degradation bookkeeping the rest of the simulator reports through.
//
// The fault model follows the "static fault" setting of Chlebus,
// Gasieniec and Pelc (Deterministic Computations on a PRAM with Static
// Processor and Memory Faults): a fixed, adversarially chosen set of
// components is faulty before the computation starts and stays faulty
// throughout. Three component classes can fail:
//
//   - a *node* fault kills a processor entirely: it cannot originate
//     requests, relay packets, or serve its memory module;
//   - a *link* fault kills one mesh edge: the greedy router must detour
//     around it (internal/route), paying extra charged cycles;
//   - a *module* fault kills only a processor's memory module: the
//     processor still routes and computes, but every variable copy
//     stored there is unavailable.
//
// Links (and, coarsely, nodes) can also be *slow* instead of dead: a
// slow link carries one packet every `factor` cycles instead of every
// cycle, which the cycle-accurate router charges faithfully.
//
// A Map is immutable once simulation starts: installing it in a
// machine freezes it, and the chainable Kill*/Slow* builders panic on a
// frozen map (Clone yields a fresh mutable copy). Build one directly,
// from a seeded random Model, or from a CLI spec via Parse. Dynamic
// fault timelines are expressed separately as a Schedule of Events
// (see schedule.go); the simulator applies them to a private clone via
// Apply, so a user-held map is never mutated behind the user's back.
// The zero-fault case is first-class: a nil *Map (or an empty one)
// means a healthy machine, and every consumer keeps its fault-free
// accounting bit-identical to the unwired code path.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"meshpram/internal/bitset"
)

// linkKey identifies an undirected mesh edge by its endpoint ids,
// normalized so a < b.
type linkKey struct{ a, b int }

func mkLink(p, q int) linkKey {
	if p > q {
		p, q = q, p
	}
	return linkKey{p, q}
}

// Map is a static fault map over a side×side mesh. The zero value of
// every query method on a nil receiver reports a healthy component, so
// fault-free paths never need nil checks.
//
// Link faults are dense: edge bit 2p is the edge from p to its right
// neighbor and bit 2p+1 the edge to the one below, both wrapping on the
// torus (edgeBit). deadLink holds dead edges; slowLink marks the slow
// ones, whose factors live in slowFactor keyed by the same bit. All
// three are allocated by the first link fault, so module- and
// node-only maps (and their clones) carry none of them.
type Map struct {
	side       int
	deadNode   *bitset.Set // dense: 1 bit per processor
	deadModule *bitset.Set
	deadLink   *bitset.Set // nil until the first link fault
	slowLink   *bitset.Set // nil until the first link fault
	slowFactor map[int]int // edge bit → delay factor ≥ 2, for set slowLink bits
	faults     int         // total marks, for Empty()
	net        int         // dead nodes + dead links + slow links, for NetworkHealthy()
	gen        uint64      // bumped by every node or link liveness change
	frozen     bool        // installed in a machine; builders refuse
}

// NewMap creates an all-healthy fault map for a side×side mesh.
func NewMap(side int) *Map {
	if side < 1 {
		panic(fmt.Sprintf("fault: side %d must be ≥ 1", side))
	}
	return &Map{
		side:       side,
		deadNode:   bitset.New(side * side),
		deadModule: bitset.New(side * side),
	}
}

// edgeBit returns the dense bit of the undirected edge p–q, or -1 when
// p and q are not mesh (or wrap) neighbors. An edge is owned by its
// left (upper) endpoint; on a side-2 torus the mesh edge and the wrap
// edge of a row (column) join the same pair and share the bit of the
// mesh edge.
func edgeBit(side, p, q int) int {
	pr, pc := p/side, p%side
	qr, qc := q/side, q%side
	switch {
	case pr == qr && (pc-qc == 1 || qc-pc == 1):
		return 2 * (pr*side + min(pc, qc))
	case pr == qr && side > 2 && (pc-qc == side-1 || qc-pc == side-1):
		return 2 * (pr*side + side - 1)
	case pc == qc && (pr-qr == 1 || qr-pr == 1):
		return 2*(min(pr, qr)*side+pc) + 1
	case pc == qc && side > 2 && (pr-qr == side-1 || qr-pr == side-1):
		return 2*((side-1)*side+pc) + 1
	}
	return -1
}

// bitEdge is the inverse of edgeBit: the endpoints (a < b) of the edge
// owned by bit.
func bitEdge(side, bit int) (a, b int) {
	p := bit >> 1
	r, c := p/side, p%side
	if bit&1 == 0 {
		b = r*side + (c+1)%side
	} else {
		b = ((r+1)%side)*side + c
	}
	if p > b {
		return b, p
	}
	return p, b
}

// ensureLinks allocates the dense link-fault sets on first use.
func (f *Map) ensureLinks() {
	if f.deadLink == nil {
		n := 2 * f.side * f.side
		f.deadLink, f.slowLink = bitset.New(n), bitset.New(n)
		f.slowFactor = make(map[int]int)
	}
}

// Side returns the mesh side the map was built for.
func (f *Map) Side() int {
	if f == nil {
		return 0
	}
	return f.side
}

// Empty reports whether the map marks no fault at all (nil-safe).
func (f *Map) Empty() bool { return f == nil || f.faults == 0 }

// Freeze marks the map as installed: the chainable Kill*/Slow*
// builders panic afterwards, catching the build-then-share aliasing
// hazard where a map handed to a simulator is mutated behind its back.
// mesh.Machine.SetFaults freezes automatically; Apply (the simulator's
// dynamic-fault path) still works. Nil-safe; returns the receiver.
func (f *Map) Freeze() *Map {
	if f != nil {
		f.frozen = true
	}
	return f
}

// Frozen reports whether the map has been installed in a machine
// (nil-safe).
func (f *Map) Frozen() bool { return f != nil && f.frozen }

// Clone returns a deep, unfrozen copy of the map (nil yields nil).
// Clone is the copy-on-write escape hatch: to keep marking faults
// after a map was handed to a simulator, clone it and mutate the copy.
func (f *Map) Clone() *Map {
	if f == nil {
		return nil
	}
	n := NewMap(f.side)
	n.deadNode.CopyFrom(f.deadNode)
	n.deadModule.CopyFrom(f.deadModule)
	if f.deadLink != nil {
		n.deadLink, n.slowLink = f.deadLink.Clone(), f.slowLink.Clone()
		n.slowFactor = make(map[int]int, len(f.slowFactor))
		f.slowLink.ForEach(func(b int) { n.slowFactor[b] = f.slowFactor[b] })
	}
	n.faults = f.faults
	n.net = f.net
	return n
}

func (f *Map) mutable(op string) {
	if f.frozen {
		panic(fmt.Sprintf("fault: %s on a frozen map (already installed in a simulator); Clone() it first", op))
	}
}

// adjacent reports whether p and q share a mesh edge, counting the
// torus wrap edges so torus configurations can fault them too.
func (f *Map) adjacent(p, q int) bool { return adjacentIn(f.side, p, q) }

func adjacentIn(s, p, q int) bool {
	pr, pc := p/s, p%s
	qr, qc := q/s, q%s
	dr, dc := pr-qr, pc-qc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if dr == s-1 && s > 1 {
		dr = 1 // wrap edge along the rows
	}
	if dc == s-1 && s > 1 {
		dc = 1 // wrap edge along the columns
	}
	return dr+dc == 1
}

func (f *Map) checkNode(p string, id int) {
	if id < 0 || id >= f.side*f.side {
		panic(fmt.Sprintf("fault: %s %d out of range [0,%d)", p, id, f.side*f.side))
	}
}

func (f *Map) checkLink(p, q int) {
	f.checkNode("link endpoint", p)
	f.checkNode("link endpoint", q)
	if !f.adjacent(p, q) {
		panic(fmt.Sprintf("fault: %d-%d is not a mesh (or wrap) edge", p, q))
	}
}

// KillNode marks processor p dead: it cannot originate, relay, or
// store. Idempotent; panics on a frozen map.
func (f *Map) KillNode(p int) *Map {
	f.mutable("KillNode")
	f.checkNode("node", p)
	f.setNode(p, true)
	return f
}

// KillModule marks processor p's memory module dead; the processor
// itself keeps routing. Idempotent; panics on a frozen map.
func (f *Map) KillModule(p int) *Map {
	f.mutable("KillModule")
	f.checkNode("module", p)
	f.setModule(p, true)
	return f
}

// KillLink marks the undirected edge p–q dead. Idempotent; panics if
// p and q are not mesh (or wrap) neighbors, or on a frozen map.
func (f *Map) KillLink(p, q int) *Map {
	f.mutable("KillLink")
	f.checkLink(p, q)
	f.setLink(p, q, true)
	return f
}

// SlowLink marks the edge p–q slow: it carries one packet every
// `factor` cycles (factor ≥ 2). A later call overwrites the factor;
// panics on a frozen map.
func (f *Map) SlowLink(p, q, factor int) *Map {
	f.mutable("SlowLink")
	f.checkLink(p, q)
	if factor < 2 {
		panic(fmt.Sprintf("fault: slow factor %d must be ≥ 2", factor))
	}
	f.setSlow(p, q, factor)
	return f
}

// setNode / setModule / setLink / setSlow flip one component's health,
// keeping the fault counter exact. They are the shared lower half of
// the chainable builders and of Apply (which bypasses the freeze: the
// simulator owns a private clone when advancing a Schedule).
func (f *Map) setNode(p int, dead bool) {
	if f.deadNode.Set(p, dead) {
		f.bump(dead, true)
		f.gen++
	}
}

func (f *Map) setModule(p int, dead bool) {
	if f.deadModule.Set(p, dead) {
		f.bump(dead, false)
	}
}

func (f *Map) setLink(p, q int, dead bool) {
	if f.deadLink == nil && !dead {
		return
	}
	f.ensureLinks()
	if f.deadLink.Set(edgeBit(f.side, p, q), dead) {
		f.bump(dead, true)
		f.gen++
	}
}

// setSlow sets the slow factor of edge p–q; factor ≤ 1 restores full
// speed.
func (f *Map) setSlow(p, q, factor int) {
	if f.deadLink == nil && factor <= 1 {
		return
	}
	f.ensureLinks()
	b := edgeBit(f.side, p, q)
	if factor <= 1 {
		if f.slowLink.Set(b, false) {
			delete(f.slowFactor, b)
			f.bump(false, true)
		}
		return
	}
	if f.slowLink.Set(b, true) {
		f.bump(true, true)
	}
	f.slowFactor[b] = factor
}

// bump adjusts the fault counters for one mark set (up) or cleared;
// network marks (nodes, links, slow links) also move the net counter.
func (f *Map) bump(up, network bool) {
	d := 1
	if !up {
		d = -1
	}
	f.faults += d
	if network {
		f.net += d
	}
}

// NetworkHealthy reports whether the map leaves the network untouched:
// no dead node, no dead link and no slow link, so every link carries a
// packet every cycle. Dead modules do not count — they make copies
// unavailable but block no link. O(1) and nil-safe.
func (f *Map) NetworkHealthy() bool { return f == nil || f.net == 0 }

// Gen returns the liveness generation: a counter bumped by every change
// to a node's or a link's dead mark (module and slow-factor changes do
// not bump it). Two reads of the same map with equal generations saw
// the same set of usable links. Nil-safe.
func (f *Map) Gen() uint64 {
	if f == nil {
		return 0
	}
	return f.gen
}

// NodeDead reports whether processor p is dead (nil-safe).
func (f *Map) NodeDead(p int) bool { return f != nil && f.deadNode.Get(p) }

// ModuleDead reports whether processor p's memory module is
// unavailable — either the module itself or the whole node is dead.
func (f *Map) ModuleDead(p int) bool {
	return f != nil && (f.deadModule.Get(p) || f.deadNode.Get(p))
}

// LinkUp reports whether the edge p–q can carry packets: both
// endpoints alive and the link itself not dead (nil-safe: always up).
func (f *Map) LinkUp(p, q int) bool {
	if f == nil {
		return true
	}
	if f.deadNode.Get(p) || f.deadNode.Get(q) {
		return false
	}
	if f.deadLink == nil || f.deadLink.Count() == 0 {
		return true
	}
	b := edgeBit(f.side, p, q)
	return b < 0 || !f.deadLink.Get(b)
}

// LinkDelay returns the cycle period of the edge p–q: 1 for a healthy
// link, the slow factor for a slow one. Callers check LinkUp first.
func (f *Map) LinkDelay(p, q int) int {
	if f == nil || f.slowLink == nil || f.slowLink.Count() == 0 {
		return 1
	}
	if b := edgeBit(f.side, p, q); b >= 0 && f.slowLink.Get(b) {
		return f.slowFactor[b]
	}
	return 1
}

// MaxDelay returns the largest slow-link factor in the map (1 when no
// link is slow; nil-safe). Routers use it to bound how long an idle
// network can still be waiting on a slow link.
func (f *Map) MaxDelay() int {
	d := 1
	if f == nil || f.slowLink == nil {
		return d
	}
	f.slowLink.ForEach(func(b int) { d = max(d, f.slowFactor[b]) })
	return d
}

// Counts returns the number of dead nodes, dead links, dead modules
// (module-only faults, not counting dead nodes) and slow links.
func (f *Map) Counts() (nodes, links, modules, slow int) {
	if f == nil {
		return 0, 0, 0, 0
	}
	if f.deadLink == nil {
		return f.deadNode.Count(), 0, f.deadModule.Count(), 0
	}
	return f.deadNode.Count(), f.deadLink.Count(), f.deadModule.Count(), f.slowLink.Count()
}

// MemBytes returns the resident heap bytes of the map: two bits per
// processor, plus, once a link fault was marked, two bits per edge slot
// and the slow-factor entries. Nil-safe.
func (f *Map) MemBytes() int64 {
	if f == nil {
		return 0
	}
	b := f.deadNode.MemBytes() + f.deadModule.MemBytes()
	if f.deadLink != nil {
		b += f.deadLink.MemBytes() + f.slowLink.MemBytes()
		b += 48 + int64(len(f.slowFactor))*24
	}
	return b
}

// String summarizes the map for CLI output.
func (f *Map) String() string {
	if f.Empty() {
		return "healthy"
	}
	n, l, m, s := f.Counts()
	return fmt.Sprintf("%d dead nodes, %d dead links, %d dead modules, %d slow links", n, l, m, s)
}

// Model is a seeded random static-fault model: each component class
// fails independently with its rate. Building the same model twice
// yields the same Map (deterministic in Seed).
type Model struct {
	NodeRate   float64 // per-processor death probability
	LinkRate   float64 // per-edge death probability
	ModuleRate float64 // per-module death probability (node survives)
	SlowRate   float64 // per-edge slow probability (applied to live links)
	SlowFactor int     // cycle period of slow links (default 4)
	Seed       int64
}

// Build realizes the model on a side×side mesh. Components are visited
// in a fixed order (nodes, then row links, then column links, then
// modules, then slow links), so the map is a pure function of the
// model and the side.
func (mo Model) Build(side int) *Map {
	f := NewMap(side)
	rng := rand.New(rand.NewSource(mo.Seed))
	factor := mo.SlowFactor
	if factor < 2 {
		factor = 4
	}
	n := side * side
	for p := 0; p < n; p++ {
		if mo.NodeRate > 0 && rng.Float64() < mo.NodeRate {
			f.KillNode(p)
		}
	}
	eachEdge(side, func(p, q int) {
		if mo.LinkRate > 0 && rng.Float64() < mo.LinkRate {
			f.KillLink(p, q)
		}
	})
	for p := 0; p < n; p++ {
		if mo.ModuleRate > 0 && rng.Float64() < mo.ModuleRate {
			f.KillModule(p)
		}
	}
	eachEdge(side, func(p, q int) {
		if mo.SlowRate > 0 && rng.Float64() < mo.SlowRate && f.LinkUp(p, q) {
			f.SlowLink(p, q, factor)
		}
	})
	return f
}

// eachEdge visits the non-wrap mesh edges in a fixed order: all
// rightward links row by row, then all downward links.
func eachEdge(side int, fn func(p, q int)) {
	for r := 0; r < side; r++ {
		for c := 0; c+1 < side; c++ {
			fn(r*side+c, r*side+c+1)
		}
	}
	for r := 0; r+1 < side; r++ {
		for c := 0; c < side; c++ {
			fn(r*side+c, (r+1)*side+c)
		}
	}
}

// Parse builds a Map from a CLI spec. The spec is a ';'-separated list
// of segments:
//
//	node:3,17          kill processors 3 and 17
//	module:40          kill processor 40's memory module
//	link:5-6,9-18      kill the edges 5–6 and 9–18
//	slow:7-8x4         make edge 7–8 carry one packet every 4 cycles
//	rand:link=0.05,module=0.02,node=0.01,slow=0.1,factor=4,seed=7
//
// An empty spec yields nil (healthy machine). Segments accumulate into
// one map; rand segments are realized with the given rates and seed.
func Parse(side int, spec string) (*Map, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	f := NewMap(side)
	var model *Model
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		kind, rest, ok := strings.Cut(seg, ":")
		if !ok {
			return nil, fmt.Errorf("fault: segment %q missing ':'", seg)
		}
		switch kind {
		case "node", "module":
			for _, tok := range strings.Split(rest, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil || id < 0 || id >= side*side {
					return nil, fmt.Errorf("fault: bad %s id %q (mesh has %d processors)", kind, tok, side*side)
				}
				if kind == "node" {
					f.KillNode(id)
				} else {
					f.KillModule(id)
				}
			}
		case "link", "slow":
			for _, tok := range strings.Split(rest, ",") {
				tok = strings.TrimSpace(tok)
				factor := 0
				if kind == "slow" {
					var fs string
					var ok bool
					tok, fs, ok = strings.Cut(tok, "x")
					if !ok {
						return nil, fmt.Errorf("fault: slow link %q missing xFACTOR", tok)
					}
					v, err := strconv.Atoi(fs)
					if err != nil || v < 2 {
						return nil, fmt.Errorf("fault: bad slow factor %q", fs)
					}
					factor = v
				}
				ps, qs, ok := strings.Cut(tok, "-")
				if !ok {
					return nil, fmt.Errorf("fault: bad link %q (want P-Q)", tok)
				}
				p, err1 := strconv.Atoi(strings.TrimSpace(ps))
				q, err2 := strconv.Atoi(strings.TrimSpace(qs))
				if err1 != nil || err2 != nil || p < 0 || q < 0 || p >= side*side || q >= side*side {
					return nil, fmt.Errorf("fault: bad link %q", tok)
				}
				if !f.adjacent(p, q) {
					return nil, fmt.Errorf("fault: %d-%d is not a mesh edge", p, q)
				}
				if kind == "link" {
					f.KillLink(p, q)
				} else {
					f.SlowLink(p, q, factor)
				}
			}
		case "rand":
			if model == nil {
				model = &Model{}
			}
			for _, kv := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("fault: bad rand entry %q (want key=value)", kv)
				}
				switch key {
				case "seed", "factor":
					v, err := strconv.ParseInt(val, 10, 64)
					// A slow factor below 2 is no slow link at all; slow:PxF
					// rejects it too.
					if err != nil || (key == "factor" && v < 2) {
						return nil, fmt.Errorf("fault: bad rand %s %q", key, val)
					}
					if key == "seed" {
						model.Seed = v
					} else {
						model.SlowFactor = int(v)
					}
				case "node", "link", "module", "slow":
					v, err := strconv.ParseFloat(val, 64)
					if err != nil || v < 0 || v > 1 {
						return nil, fmt.Errorf("fault: bad rand rate %s=%q", key, val)
					}
					switch key {
					case "node":
						model.NodeRate = v
					case "link":
						model.LinkRate = v
					case "module":
						model.ModuleRate = v
					case "slow":
						model.SlowRate = v
					}
				default:
					return nil, fmt.Errorf("fault: unknown rand key %q", key)
				}
			}
		default:
			return nil, fmt.Errorf("fault: unknown segment kind %q", kind)
		}
	}
	if model != nil {
		rm := model.Build(side)
		// Merge the random realization into the explicit marks.
		rm.deadNode.ForEach(func(p int) { f.KillNode(p) })
		rm.deadModule.ForEach(func(p int) { f.KillModule(p) })
		if rm.deadLink != nil {
			rm.deadLink.ForEach(func(b int) { f.KillLink(bitEdge(side, b)) })
			rm.slowLink.ForEach(func(b int) {
				p, q := bitEdge(side, b)
				f.SlowLink(p, q, rm.slowFactor[b])
			})
		}
	}
	if f.Empty() {
		return nil, nil
	}
	return f, nil
}

// StepReport is the per-step degradation report: what the simulation
// could not serve at full fidelity because of faults. A nil report (or
// a zero one) means the step ran exactly as on a healthy machine.
type StepReport struct {
	// Ops is the number of requests the step was asked to serve.
	Ops int
	// DeadOrigins counts ops whose originating processor is dead; they
	// are not served at all.
	DeadOrigins int
	// LostPackets counts copy packets that could not be delivered or
	// returned (dead destination, or the detour budget ran out).
	LostPackets int
	// Unrecoverable lists the ops (by the caller's index space: batch
	// index at the core layer, variable address at the PRAM layer)
	// whose surviving copies no longer grant root access under the
	// majority rule — their results cannot be trusted.
	Unrecoverable []int
}

// Degraded reports whether the step deviated from healthy execution.
func (r *StepReport) Degraded() bool {
	return r != nil && (r.DeadOrigins > 0 || r.LostPackets > 0 || len(r.Unrecoverable) > 0)
}

// Merge folds another report into r (nil o is a no-op).
func (r *StepReport) Merge(o *StepReport) {
	if r == nil || o == nil {
		return
	}
	r.Ops += o.Ops
	r.DeadOrigins += o.DeadOrigins
	r.LostPackets += o.LostPackets
	r.Unrecoverable = append(r.Unrecoverable, o.Unrecoverable...)
}

// String renders the report compactly for CLI output.
func (r *StepReport) String() string {
	if !r.Degraded() {
		return "healthy"
	}
	u := append([]int(nil), r.Unrecoverable...)
	sort.Ints(u)
	return fmt.Sprintf("deadOrigins=%d lostPackets=%d unrecoverable=%v", r.DeadOrigins, r.LostPackets, u)
}
