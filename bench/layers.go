package main

import (
	"fmt"
	"strings"

	"meshpram/internal/trace"
)

// collector is the trace.Sink of a traced run. It only keeps the root
// spans; the runner walks them after ExecStep returns, so the timed
// region does the same work as in an untraced run.
type collector struct{ roots []*trace.Span }

func (c *collector) Emit(root *trace.Span) { c.roots = append(c.roots, root) }

func (c *collector) take() []*trace.Span {
	r := c.roots
	c.roots = nil
	return r
}

// Layer buckets of span self time. Every span name the simulator emits
// maps to one; anything else lands in unattributed.
const (
	engFwd    = iota // greedy routing under a forward stage
	engRet           // greedy routing under a return leg
	engRepair        // greedy routing of repair scrubs
	sortL
	cullL
	rankL
	accessL
	repairL
	glueL // core's structural spans: step, stages, legs, charge leaves
	pramL // exec-step, source-combine, retry-backoff
	unattributed
	numBuckets
)

// layers accumulates the per-layer breakdown of a traced run over its
// PRAM steps and checks the paper's invariants on every span tree.
type layers struct {
	steps  int
	execNs int64 // Σ timed ExecStep wall
	selfNs [numBuckets]int64

	executed, observed int64 // greedy spans
	phase              [trace.NumPhases]int64
	combineCycles      int64 // pram source combining
	packets            int64
	pageloadRatio      float64
	staleMax           int64
}

// step folds in the roots one ExecStep emitted. wallNs is its timed
// wall time and cycles its Mesh.Steps() delta.
func (l *layers) step(roots []*trace.Span, wallNs, cycles int64) error {
	l.steps++
	l.execNs += wallNs
	var total int64
	for _, r := range roots {
		total += r.Total()
		if err := l.walk(r, ""); err != nil {
			return err
		}
	}
	if total != cycles {
		return fmt.Errorf("span trees charge %d cycles, Mesh.Steps() advanced %d", total, cycles)
	}
	return nil
}

// walk attributes s's self time (its wall time minus its children's)
// and charges. ctx names the routing context: "fwd" under a forward
// stage, "ret" under a return leg, "repair" under a scrub.
func (l *layers) walk(s *trace.Span, ctx string) error {
	self := s.WallNs()
	for _, c := range s.Children() {
		self -= c.WallNs()
	}
	l.phase[s.Phase()] += s.Charged()
	name := s.Name()
	b := unattributed
	switch {
	case name == "greedy":
		if s.Executed() > s.Observed() {
			return fmt.Errorf("greedy span executed %d iterations for %d observed cycles", s.Executed(), s.Observed())
		}
		l.executed += s.Executed()
		l.observed += s.Observed()
		switch ctx {
		case "fwd":
			b = engFwd
		case "ret":
			b = engRet
		case "repair":
			b = engRepair
		}
	case name == "culling":
		b = cullL
		for i := 1; ; i++ {
			mx, ok := s.Attr(fmt.Sprintf("pageload-max-%d", i))
			bd, okb := s.Attr(fmt.Sprintf("pageload-bound-%d", i))
			if !ok || !okb {
				break
			}
			if mx > bd {
				return fmt.Errorf("culling level %d page load %d exceeds the Theorem-3 bound %d", i, mx, bd)
			}
			if bd > 0 {
				l.pageloadRatio = max(l.pageloadRatio, float64(mx)/float64(bd))
			}
		}
	case name == "sort" || strings.HasPrefix(name, "sortsnake") || name == "rotatesort":
		b = sortL
	case name == "rank" || name == "prefix-sum":
		b = rankL
	case name == "access" || name == "combine":
		b = accessL
	case name == "repair":
		b, ctx = repairL, "repair"
	case strings.HasPrefix(name, "stage-") || name == "direct":
		b, ctx = glueL, "fwd"
	case strings.HasPrefix(name, "return-leg-"):
		b, ctx = glueL, "ret"
	case name == "step":
		b = glueL
		l.packets += s.Packets()
	case name == "forward" || name == "return":
		b = glueL
	case name == "faultview":
		b = glueL
		if v, ok := s.Attr("stale-max"); ok {
			l.staleMax = max(l.staleMax, v)
		}
	case name == "source-combine":
		b = pramL
		l.combineCycles += s.Charged()
	case name == "exec-step" || name == "retry-backoff":
		b = pramL
	}
	l.selfNs[b] += self
	for _, c := range s.Children() {
		if err := l.walk(c, ctx); err != nil {
			return err
		}
	}
	return nil
}

// coverage is the share of timed ExecStep wall time the named layers
// account for (pram's self time included).
func (l *layers) coverage() float64 {
	if l.execNs == 0 {
		return 1
	}
	return 1 - float64(l.selfNs[unattributed])/float64(l.execNs)
}

// metrics returns the per-step layer metrics in BENCHMARK.json order,
// except the store and runtime ones, which the runner measures.
func (l *layers) metrics() []metric {
	// pram's self time is what the timed calls spent outside every
	// simulator layer: its own spans plus combining, batching,
	// checkpoint and rollback, which have none.
	pramNs := l.execNs
	for b, ns := range l.selfNs {
		if b != pramL {
			pramNs -= ns
		}
	}
	n := float64(max(l.steps, 1))
	ms := func(b int) float64 { return float64(l.selfNs[b]) / 1e6 / n }
	per := func(v int64) float64 { return float64(v) / n }
	engNs := l.selfNs[engFwd] + l.selfNs[engRet] + l.selfNs[engRepair]
	return []metric{
		{"route.engine.fwd_ms", "ms", ms(engFwd)},
		{"route.engine.ret_ms", "ms", ms(engRet)},
		{"route.engine.repair_ms", "ms", ms(engRepair)},
		{"route.engine.executed", "count", per(l.executed)},
		{"route.engine.skip_ratio", "ratio", ratio(float64(l.executed), float64(l.observed))},
		{"route.engine.ns_per_exec", "ns", ratio(float64(engNs), float64(l.executed))},
		{"route.engine.cycles", "cycles", per(l.phase[trace.PhaseForward] + l.phase[trace.PhaseReturn])},
		{"route.sort.ms", "ms", ms(sortL)},
		{"route.sort.cycles", "cycles", per(l.phase[trace.PhaseSort] - l.combineCycles)},
		{"culling.ms", "ms", ms(cullL)},
		{"culling.cycles", "cycles", per(l.phase[trace.PhaseCulling])},
		{"culling.pageload_ratio", "ratio", l.pageloadRatio},
		{"core.rank.ms", "ms", ms(rankL)},
		{"core.access.ms", "ms", ms(accessL)},
		{"core.packets", "count", per(l.packets)},
		{"core.glue_ms", "ms", ms(glueL)},
		{"core.repair.ms", "ms", ms(repairL)},
		{"core.repair.cycles", "cycles", per(l.phase[trace.PhaseRepair])},
		{"faultview.stale_max", "rounds", float64(l.staleMax)},
		{"pram.self_ms", "ms", float64(pramNs) / 1e6 / n},
		{"pram.combine_cycles", "cycles", per(l.combineCycles)},
	}
}
