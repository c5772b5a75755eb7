// Package baseline implements the comparison schemes the experiments
// measure the paper's simulation against:
//
//   - NoReplication: one copy per variable placed by a fixed hash — the
//     classic single-copy organization whose deterministic worst case
//     (all n requests in one module) is the reason replication exists
//     (experiment E8);
//   - RandomMOS: an Upfal–Wigderson-style memory organization with
//     2c−1 copies per variable placed by a random function and accessed
//     through timestamped majority quorums of size c. It matches the
//     paper's consistency machinery but needs an explicit Θ(M·(2c−1))
//     memory map, the space cost the constructive scheme avoids
//     (experiment E10).
//
// Both run on the same mesh substrate and cost model as internal/core:
// requests are routed with a sorted greedy (l1,l2)-routing and return
// to their origins, and every charged step comes from the same
// primitives in internal/route. Each Step builds one span tree on the
// machine's cost ledger (sort/forward/access/return charged leaves plus
// the route layer's observe detail); StepCost is the phase-total view
// of that tree. Both organizations run one step pipeline and differ
// only in how many copies an op touches and where they live.
package baseline

import (
	"fmt"
	"math/rand"

	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/trace"
)

// Word mirrors core.Word.
type Word = int64

// Op mirrors core.Op to avoid an import cycle in callers that use both.
type Op struct {
	Origin  int
	Var     int
	IsWrite bool
	Value   Word
}

// StepCost is the charged breakdown of a baseline step.
type StepCost struct {
	Sort    int64
	Forward int64
	Access  int64
	Return  int64
}

// Total returns the summed steps.
func (c StepCost) Total() int64 { return c.Sort + c.Forward + c.Access + c.Return }

// pipeline is the one step both memory organizations run: inject one
// packet per accessed copy, sort by destination, route forward, access
// the modules, route back, and keep each op's newest copy. A variable's
// copies are store slots on processors; the organization only decides
// which copies an op touches (copyAt).
type pipeline struct {
	// M is the mesh the organization runs on; its cost ledger holds one
	// span tree per Step.
	M *mesh.Machine

	copies int // copies accessed per op

	store []map[int64]tsCell // per processor: slot → value and write time
	now   int64              // step clock, the write timestamp

	// Persistent router and per-step buffers: a batch loop routes
	// without reallocating queue or delivery storage (entries are
	// truncated, never freed, between steps).
	eng  *route.Engine[pkt]
	pkts [][]pkt // injection / post-sort layout
	fwd  [][]pkt // forward-route deliveries
	ret  [][]pkt // return-route deliveries
}

type tsCell struct {
	val Word
	ts  int64
}

type pkt struct {
	op     int32
	origin int
	dest   int
	slot   int64
	isW    bool
	val    Word
	ts     int64
}

func newPipeline(side, copies int) (pipeline, error) {
	m, err := mesh.New(side)
	if err != nil {
		return pipeline{}, err
	}
	m.AttachLedger(trace.New())
	return pipeline{
		M:      m,
		copies: copies,
		store:  make([]map[int64]tsCell, m.N),
		eng:    route.NewEngine[pkt](m),
		pkts:   make([][]pkt, m.N),
		fwd:    make([][]pkt, m.N),
		ret:    make([][]pkt, m.N),
	}, nil
}

// step executes one batch of distinct-variable requests over variables
// [0, vars) and returns read results aligned with ops plus the cost
// breakdown. copyAt(v, j) names the processor and store slot of the
// j-th copy an op on v accesses this step.
func (pl *pipeline) step(ops []Op, vars int, copyAt func(v, j int) (proc int, slot int64)) ([]Word, StepCost) {
	m := pl.M
	ld := m.Ledger()
	step := ld.Begin("step", trace.PhaseOther)
	pl.now++
	pkts := pl.pkts // empty entries: drained by the previous step's routing
	seen := make(map[int]bool, len(ops))
	for i, op := range ops {
		if op.Var < 0 || op.Var >= vars {
			panic(fmt.Sprintf("baseline: variable %d out of range", op.Var))
		}
		if seen[op.Var] {
			panic(fmt.Sprintf("baseline: duplicate variable %d", op.Var))
		}
		seen[op.Var] = true
		for j := 0; j < pl.copies; j++ {
			p, slot := copyAt(op.Var, j)
			pkts[op.Origin] = append(pkts[op.Origin], pkt{
				op: int32(i), origin: op.Origin, dest: p, slot: slot,
				isW: op.IsWrite, val: op.Value,
			})
		}
	}
	step.AddPackets(int64(len(ops) * pl.copies))
	full := m.Full()
	sorted, _, sortSteps := route.SortSnake(m, full, pkts, func(p pkt) uint64 { return uint64(p.dest) })
	lf := ld.Begin("sort", trace.PhaseSort)
	m.AddSteps(sortSteps)
	lf.End()
	delivered, cycles := pl.eng.Route(pl.fwd, full, sorted, func(p pkt) int { return p.dest })
	lf = ld.Begin("forward", trace.PhaseForward)
	m.AddSteps(cycles)
	lf.End()

	maxPer := 0
	for p := range delivered {
		maxPer = max(maxPer, len(delivered[p]))
		for j := range delivered[p] {
			pk := &delivered[p][j]
			if pk.isW {
				if pl.store[p] == nil {
					pl.store[p] = make(map[int64]tsCell)
				}
				pl.store[p][pk.slot] = tsCell{val: pk.val, ts: pl.now}
				pk.ts = pl.now
			} else {
				// An unwritten copy reads 0, also on a processor that
				// never stored a word.
				c := pl.store[p][pk.slot]
				pk.val, pk.ts = c.val, c.ts
			}
		}
	}
	lf = ld.Begin("access", trace.PhaseAccess)
	m.AddSteps(int64(maxPer))
	lf.End()

	home, back := pl.eng.Route(pl.ret, full, delivered, func(p pkt) int { return p.origin })
	lf = ld.Begin("return", trace.PhaseReturn)
	m.AddSteps(back)
	lf.End()

	res := make([]Word, len(ops))
	best := make([]int64, len(ops))
	for i := range best {
		best[i] = -1
	}
	for p := range home {
		for _, pk := range home[p] {
			if pk.ts > best[pk.op] {
				best[pk.op] = pk.ts
				res[pk.op] = pk.val
			}
		}
		home[p] = home[p][:0] // leave the return buffer empty for reuse
	}
	for i, op := range ops {
		if op.IsWrite {
			res[i] = op.Value
		}
	}
	step.End()
	return res, costFromSpan(step)
}

// costFromSpan is the StepCost view of one baseline step tree.
func costFromSpan(step *trace.Span) StepCost {
	pt := step.PhaseTotals()
	return StepCost{
		Sort:    pt[trace.PhaseSort],
		Forward: pt[trace.PhaseForward],
		Access:  pt[trace.PhaseAccess],
		Return:  pt[trace.PhaseReturn],
	}
}

// --- NoReplication ------------------------------------------------------

// NoReplication stores each variable once, on processor hash(v): the
// one-copy case of the pipeline, with slot = variable.
type NoReplication struct {
	pipeline
	Vars int

	mult uint64
	cw   *CWHash // non-nil: Carter–Wegman placement (see universal.go)
}

// NewNoReplication creates the single-copy baseline.
func NewNoReplication(side, vars int) (*NoReplication, error) {
	pl, err := newPipeline(side, 1)
	if err != nil {
		return nil, err
	}
	return &NoReplication{pipeline: pl, Vars: vars, mult: 0x9e3779b97f4a7c15}, nil
}

// Home returns the processor storing variable v.
func (b *NoReplication) Home(v int) int {
	if b.cw != nil {
		return b.cw.Apply(v)
	}
	return int((uint64(v) * b.mult >> 17) % uint64(b.M.N))
}

// VarsOnProc returns up to max variables homed on processor p — the
// adversarial request set of experiment E8.
func (b *NoReplication) VarsOnProc(p, max int) []int {
	var out []int
	for v := 0; v < b.Vars && len(out) < max; v++ {
		if b.Home(v) == p {
			out = append(out, v)
		}
	}
	return out
}

// MapBytes returns the memory-map state a processor must hold: the hash
// multiplier only.
func (b *NoReplication) MapBytes() int64 { return 8 }

// Step executes one batch of distinct-variable requests and returns
// read results aligned with ops plus the cost breakdown.
func (b *NoReplication) Step(ops []Op) ([]Word, StepCost) {
	return b.step(ops, b.Vars, func(v, _ int) (int, int64) { return b.Home(v), int64(v) })
}

// --- RandomMOS ----------------------------------------------------------

// RandomMOS replicates every variable into 2c−1 copies on random
// processors and accesses majority quorums of c timestamped copies.
type RandomMOS struct {
	pipeline
	C int // quorum size; 2C−1 copies per variable

	vars  int
	place [][]int32 // place[v] = the 2c−1 processors holding v's copies
}

// NewRandomMOS builds the random memory organization with the given
// quorum size c ≥ 2 (redundancy 2c−1) and seed.
func NewRandomMOS(side, vars, c int, seed int64) (*RandomMOS, error) {
	if c < 2 {
		return nil, fmt.Errorf("baseline: quorum c=%d must be ≥ 2", c)
	}
	pl, err := newPipeline(side, c)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := &RandomMOS{pipeline: pl, C: c, vars: vars, place: make([][]int32, vars)}
	for v := range b.place {
		procs := make([]int32, 2*c-1)
		used := map[int32]bool{}
		for j := range procs {
			p := int32(rng.Intn(pl.M.N))
			for used[p] {
				p = int32(rng.Intn(pl.M.N))
			}
			used[p] = true
			procs[j] = p
		}
		b.place[v] = procs
	}
	return b, nil
}

// MapBytes returns the explicit memory-map storage: 4 bytes per copy
// placement (the whole table must be replicated or partitioned among
// processors; we report the total).
func (b *RandomMOS) MapBytes() int64 { return int64(b.vars) * int64(2*b.C-1) * 4 }

// Step executes one batch of distinct-variable requests: for each, c of
// its 2c−1 copies (round-robin rotation per step for load spreading)
// are accessed; reads return the most recent timestamp.
func (b *RandomMOS) Step(ops []Op) ([]Word, StepCost) {
	return b.step(ops, b.vars, func(v, j int) (int, int64) {
		procs := b.place[v]
		k := (int(b.now) + j) % len(procs)
		return int(procs[k]), int64(v)*int64(len(procs)) + int64(k)
	})
}
