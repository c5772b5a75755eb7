package fault

// Dynamic fault timelines. A Schedule is a deterministic, time-indexed
// list of Events (kill or revive a node, module or link; slow or heal a
// link) that the simulator applies to its live fault map as the step
// clock advances. Time is measured in core protocol steps (the
// simulator's step clock): an event at step t is applied after t steps
// have completed, i.e. before the (t+1)-th step executes. Events at
// step 0 are therefore in effect from the very first step, which makes
// a step-0-only schedule equivalent to installing the same marks as a
// static Map.
//
// Schedules are built programmatically (NewSchedule + Add), from a
// textual spec (ParseSchedule), or drawn from a seeded churn model
// (Churn.Build). A Schedule is immutable once handed to a simulator in
// the sense that the simulator only reads it: the per-simulator replay
// cursor lives in the simulator, so one Schedule can drive many runs.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// EventKind classifies a scheduled fault transition.
type EventKind uint8

const (
	EvKillNode EventKind = iota
	EvReviveNode
	EvKillModule
	EvReviveModule
	EvKillLink
	EvReviveLink
	EvSlowLink // link p–q carries one packet every Factor cycles
	EvHealLink // restore full speed on link p–q
)

var eventKindNames = [...]string{
	"kill-node", "revive-node", "kill-module", "revive-module",
	"kill-link", "revive-link", "slow-link", "heal-link",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "invalid"
}

// Event is one scheduled fault transition at step Step.
type Event struct {
	Step   int64     // protocol step after which the event takes effect
	Kind   EventKind //
	P, Q   int       // component ids; Q only for link kinds
	Factor int       // slow factor for EvSlowLink (≥ 2)
}

func (ev Event) String() string {
	switch ev.Kind {
	case EvKillLink, EvReviveLink, EvHealLink:
		return fmt.Sprintf("@%d %s %d-%d", ev.Step, ev.Kind, ev.P, ev.Q)
	case EvSlowLink:
		return fmt.Sprintf("@%d %s %d-%dx%d", ev.Step, ev.Kind, ev.P, ev.Q, ev.Factor)
	default:
		return fmt.Sprintf("@%d %s %d", ev.Step, ev.Kind, ev.P)
	}
}

// validateEvent checks an event against a side×side mesh.
func validateEvent(side int, ev Event) error {
	n := side * side
	if ev.Step < 0 {
		return fmt.Errorf("fault: event step %d must be ≥ 0", ev.Step)
	}
	if int(ev.Kind) >= len(eventKindNames) {
		return fmt.Errorf("fault: invalid event kind %d", ev.Kind)
	}
	if ev.P < 0 || ev.P >= n {
		return fmt.Errorf("fault: event %s: id %d out of range [0,%d)", ev.Kind, ev.P, n)
	}
	switch ev.Kind {
	case EvKillLink, EvReviveLink, EvSlowLink, EvHealLink:
		if ev.Q < 0 || ev.Q >= n {
			return fmt.Errorf("fault: event %s: id %d out of range [0,%d)", ev.Kind, ev.Q, n)
		}
		if !adjacentIn(side, ev.P, ev.Q) {
			return fmt.Errorf("fault: event %s: %d-%d is not a mesh (or wrap) edge", ev.Kind, ev.P, ev.Q)
		}
		if ev.Kind == EvSlowLink && ev.Factor < 2 {
			return fmt.Errorf("fault: event %s: factor %d must be ≥ 2", ev.Kind, ev.Factor)
		}
	}
	return nil
}

// Apply executes one event against the map. Unlike the chainable
// Kill*/Slow* builders, Apply works on a frozen map: it is the
// simulator's dynamic-fault mutation point, used while advancing a
// Schedule over the simulator's private clone of the base map. It
// panics on an event that does not fit the map's mesh.
func (f *Map) Apply(ev Event) {
	if err := validateEvent(f.side, ev); err != nil {
		panic(err.Error())
	}
	switch ev.Kind {
	case EvKillNode:
		f.setNode(ev.P, true)
	case EvReviveNode:
		f.setNode(ev.P, false)
	case EvKillModule:
		f.setModule(ev.P, true)
	case EvReviveModule:
		f.setModule(ev.P, false)
	case EvKillLink:
		f.setLink(ev.P, ev.Q, true)
	case EvReviveLink:
		f.setLink(ev.P, ev.Q, false)
	case EvSlowLink:
		f.setSlow(ev.P, ev.Q, ev.Factor)
	case EvHealLink:
		f.setSlow(ev.P, ev.Q, 0)
	}
}

// Schedule is a deterministic, time-indexed fault event list. The zero
// of the type is not usable; construct with NewSchedule, ParseSchedule
// or Churn.Build. All query methods are nil-safe; a nil (or empty)
// Schedule means a static fault world.
type Schedule struct {
	side   int
	events []Event
	sorted bool
}

// NewSchedule creates an empty schedule for a side×side mesh.
func NewSchedule(side int) *Schedule {
	if side < 1 {
		panic(fmt.Sprintf("fault: side %d must be ≥ 1", side))
	}
	return &Schedule{side: side}
}

// Side returns the mesh side the schedule was built for (0 for nil).
func (s *Schedule) Side() int {
	if s == nil {
		return 0
	}
	return s.side
}

// Empty reports whether the schedule holds no event (nil-safe).
func (s *Schedule) Empty() bool { return s == nil || len(s.events) == 0 }

// Len returns the number of events (nil-safe).
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Add appends an event; panics if it does not fit the mesh. Events may
// be added in any time order — replay sorts them stably by step, so
// same-step events apply in insertion order.
func (s *Schedule) Add(ev Event) *Schedule {
	if err := validateEvent(s.side, ev); err != nil {
		panic(err.Error())
	}
	s.events = append(s.events, ev)
	s.sorted = false
	return s
}

func (s *Schedule) normalize() {
	if s.sorted {
		return
	}
	sort.SliceStable(s.events, func(a, b int) bool { return s.events[a].Step < s.events[b].Step })
	s.sorted = true
}

// Events returns the events in replay order (a copy; nil-safe).
func (s *Schedule) Events() []Event {
	if s.Empty() {
		return nil
	}
	s.normalize()
	return append([]Event(nil), s.events...)
}

// EventsBefore returns the events with Step < step starting at the
// replay cursor, and the advanced cursor. Replay is monotone: callers
// keep the cursor and pass it back, so each event is applied exactly
// once per simulator even across snapshot rollbacks.
func (s *Schedule) EventsBefore(cursor int, step int64) ([]Event, int) {
	if s.Empty() || cursor >= len(s.events) {
		return nil, cursor
	}
	s.normalize()
	end := cursor
	for end < len(s.events) && s.events[end].Step < step {
		end++
	}
	return s.events[cursor:end], end
}

// MaxStep returns the largest event step (0 when empty; nil-safe).
func (s *Schedule) MaxStep() int64 {
	var mx int64
	if s == nil {
		return 0
	}
	for _, ev := range s.events {
		if ev.Step > mx {
			mx = ev.Step
		}
	}
	return mx
}

// String summarizes the schedule for CLI output.
func (s *Schedule) String() string {
	if s.Empty() {
		return "static"
	}
	return fmt.Sprintf("%d events through step %d", s.Len(), s.MaxStep())
}

// Churn is a seeded random dynamic-fault model: at every step in
// [1, Horizon], each live component of a class dies with its per-step
// rate; a killed component revives after exactly Repair steps (0 =
// never). Build is deterministic in (Seed, side): components are
// visited in a fixed order per step (nodes ascending, then the static
// edge order of eachEdge, then modules ascending), and the generator
// draws only for currently-live components.
type Churn struct {
	NodeRate   float64 // per-step death probability per live node
	LinkRate   float64 // per-step death probability per live edge
	ModuleRate float64 // per-step death probability per live module
	Repair     int64   // steps a killed component stays dead (0 = forever)
	Horizon    int64   // last step at which deaths are drawn
	Seed       int64
}

// Build realizes the churn model on a side×side mesh as a Schedule.
func (c Churn) Build(side int) *Schedule {
	s := NewSchedule(side)
	rng := rand.New(rand.NewSource(c.Seed))
	n := side * side
	nodeUp := make([]int64, n)   // next step at which the node is live again
	moduleUp := make([]int64, n) // (value ≤ t means live at step t)
	linkUp := make([]int64, 2*n) // by edgeBit
	kill := func(t int64, kind EventKind, p, q int) {
		ev := Event{Step: t, Kind: kind, P: p, Q: q}
		s.Add(ev)
		if c.Repair > 0 {
			rev := ev
			rev.Step = t + c.Repair
			rev.Kind++ // each kill kind is followed by its revive kind
			s.Add(rev)
		}
	}
	for t := int64(1); t <= c.Horizon; t++ {
		deadUntil := int64(1<<62 - 1)
		if c.Repair > 0 {
			deadUntil = t + c.Repair
		}
		for p := 0; p < n; p++ {
			if c.NodeRate > 0 && nodeUp[p] <= t && rng.Float64() < c.NodeRate {
				kill(t, EvKillNode, p, 0)
				nodeUp[p] = deadUntil
			}
		}
		if c.LinkRate > 0 {
			eachEdge(side, func(p, q int) {
				if b := edgeBit(side, p, q); linkUp[b] <= t && rng.Float64() < c.LinkRate {
					kill(t, EvKillLink, p, q)
					linkUp[b] = deadUntil
				}
			})
		}
		for p := 0; p < n; p++ {
			if c.ModuleRate > 0 && moduleUp[p] <= t && rng.Float64() < c.ModuleRate {
				kill(t, EvKillModule, p, 0)
				moduleUp[p] = deadUntil
			}
		}
	}
	return s
}

// ParseSchedule builds a Schedule from a CLI spec: a ';'-separated
// list of timed segments, each reusing the static fault grammar of
// Parse behind an '@STEP' prefix, plus 'revive-'/'heal-' kinds and a
// churn segment:
//
//	@0 module:40            kill module 40 before the first step
//	@10 node:3,17           kill processors 3 and 17 after step 10
//	@25 revive-node:3       revive processor 3 after step 25
//	@5 link:5-6             kill edge 5–6; revive-link:5-6 restores it
//	@5 slow:7-8x4           slow edge 7–8; heal:7-8 restores full speed
//	churn:module=0.01,repair=15,until=100,seed=7
//
// Churn keys: node, link, module (per-step rates in [0,1]), repair
// (revive delay in steps, 0 = never), until (horizon), seed. An empty
// spec yields nil (static world).
func ParseSchedule(side int, spec string) (*Schedule, error) {
	if side < 1 {
		return nil, fmt.Errorf("fault: side %d must be ≥ 1", side)
	}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &Schedule{side: side}
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(seg, "churn:"); ok {
			ch, err := parseChurn(rest)
			if err != nil {
				return nil, err
			}
			s.events = append(s.events, ch.Build(side).Events()...)
			s.sorted = false
			continue
		}
		if !strings.HasPrefix(seg, "@") {
			return nil, fmt.Errorf("fault: schedule segment %q must start with @STEP (or churn:)", seg)
		}
		fields := strings.Fields(seg[1:])
		if len(fields) != 2 {
			return nil, fmt.Errorf("fault: schedule segment %q: want '@STEP kind:ids'", seg)
		}
		step, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || step < 0 {
			return nil, fmt.Errorf("fault: bad schedule step %q", fields[0])
		}
		kind, rest, ok := strings.Cut(fields[1], ":")
		if !ok {
			return nil, fmt.Errorf("fault: schedule segment %q missing ':'", seg)
		}
		evs, err := parseEventList(side, step, kind, rest)
		if err != nil {
			return nil, err
		}
		s.events = append(s.events, evs...)
		s.sorted = false
	}
	if s.Empty() {
		return nil, nil
	}
	return s, nil
}

// parseEventList expands one timed segment body into events.
func parseEventList(side int, step int64, kind, rest string) ([]Event, error) {
	var base EventKind
	link := false
	factor := false
	switch kind {
	case "node":
		base = EvKillNode
	case "revive-node":
		base = EvReviveNode
	case "module":
		base = EvKillModule
	case "revive-module":
		base = EvReviveModule
	case "link":
		base, link = EvKillLink, true
	case "revive-link":
		base, link = EvReviveLink, true
	case "slow":
		base, link, factor = EvSlowLink, true, true
	case "heal":
		base, link = EvHealLink, true
	default:
		return nil, fmt.Errorf("fault: unknown schedule kind %q", kind)
	}
	var out []Event
	for _, tok := range strings.Split(rest, ",") {
		tok = strings.TrimSpace(tok)
		ev := Event{Step: step, Kind: base}
		if link {
			if factor {
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
				ev.Factor = v
			}
			ps, qs, ok := strings.Cut(tok, "-")
			if !ok {
				return nil, fmt.Errorf("fault: bad link %q (want P-Q)", tok)
			}
			p, err1 := strconv.Atoi(strings.TrimSpace(ps))
			q, err2 := strconv.Atoi(strings.TrimSpace(qs))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("fault: bad link %q", tok)
			}
			ev.P, ev.Q = p, q
		} else {
			id, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("fault: bad %s id %q", kind, tok)
			}
			ev.P = id
		}
		if err := validateEvent(side, ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseChurn(rest string) (Churn, error) {
	var ch Churn
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return ch, fmt.Errorf("fault: bad churn entry %q (want key=value)", kv)
		}
		switch key {
		case "node", "link", "module":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || v < 0 || v > 1 {
				return ch, fmt.Errorf("fault: bad churn rate %s=%q", key, val)
			}
			switch key {
			case "node":
				ch.NodeRate = v
			case "link":
				ch.LinkRate = v
			case "module":
				ch.ModuleRate = v
			}
		case "repair", "until", "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil || (v < 0 && key != "seed") {
				return ch, fmt.Errorf("fault: bad churn %s %q", key, val)
			}
			switch key {
			case "repair":
				ch.Repair = v
			case "until":
				ch.Horizon = v
			case "seed":
				ch.Seed = v
			}
		default:
			return ch, fmt.Errorf("fault: unknown churn key %q", key)
		}
	}
	if ch.Horizon <= 0 {
		return ch, fmt.Errorf("fault: churn needs until=HORIZON ≥ 1")
	}
	// Parsed churn is bounded so a hostile spec cannot make the builder
	// loop or allocate without limit (programmatic Churn is unrestricted).
	if ch.Horizon > 4096 {
		return ch, fmt.Errorf("fault: churn until=%d exceeds the spec limit 4096", ch.Horizon)
	}
	return ch, nil
}
