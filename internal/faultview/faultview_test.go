package faultview

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"meshpram/internal/fault"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", Global, false},
		{"global", Global, false},
		{"local", Local, false},
		{"LOCAL", 0, true},
		{"omniscient", 0, true},
	} {
		got, err := ParseMode(tc.in)
		if tc.err != (err != nil) {
			t.Fatalf("ParseMode(%q) err = %v, want err=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if Global.String() != "global" || Local.String() != "local" {
		t.Fatalf("Mode strings: %q %q", Global, Local)
	}
}

// TestNoticeKinds pins the notice spellings to fault.EventKind.String,
// so the two grammars (schedule specs and notices) can never drift
// apart.
func TestNoticeKinds(t *testing.T) {
	for _, tc := range []struct {
		nt   Notice
		want string
	}{
		{Notice{Seq: 0, Origin: 11, Round: 12, Kind: fault.EvKillNode, P: 12}, "#0@11+12 kill-node:12"},
		{Notice{Seq: 3, Origin: 7, Kind: fault.EvReviveNode, P: 7}, "#3@7+0 revive-node:7"},
		{Notice{Seq: 1, Origin: 4, Round: 9, Kind: fault.EvKillModule, P: 4}, "#1@4+9 kill-module:4"},
		{Notice{Seq: 2, Origin: 4, Round: 10, Kind: fault.EvReviveModule, P: 4}, "#2@4+10 revive-module:4"},
		{Notice{Origin: 6, Round: 30, Kind: fault.EvKillLink, P: 6, Q: 7}, "#0@6+30 kill-link:6-7"},
		{Notice{Seq: 1, Origin: 6, Round: 31, Kind: fault.EvReviveLink, P: 6, Q: 7}, "#1@6+31 revive-link:6-7"},
		{Notice{Seq: 5, Origin: 5, Round: 8, Kind: fault.EvSlowLink, P: 5, Q: 6, Factor: 4}, "#5@5+8 slow-link:5-6x4"},
		{Notice{Seq: 6, Origin: 5, Round: 8, Kind: fault.EvHealLink, P: 5, Q: 6}, "#6@5+8 heal-link:5-6"},
	} {
		if got := tc.nt.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.nt, got, tc.want)
		}
		if kind := tc.nt.Kind.String(); !strings.Contains(tc.want, " "+kind+":") {
			t.Errorf("%q does not spell its kind as %q", tc.want, kind)
		}
	}
}

// killNode applies a node death to a fresh truth map.
func killNode(t *testing.T, side, p int) *fault.Map {
	t.Helper()
	m := fault.NewMap(side)
	m.Apply(fault.Event{Kind: fault.EvKillNode, P: p})
	return m
}

func TestObserveWitnessRules(t *testing.T) {
	const side = 5
	truth := killNode(t, side, 12)
	v := New(side, false, nil, 42)

	idx, ok := v.ObserveEvent(fault.Event{Kind: fault.EvKillNode, P: 12}, truth)
	if !ok {
		t.Fatal("kill-node with live neighbors must be witnessed")
	}
	nt := v.log[idx]
	switch nt.Origin {
	case 7, 11, 13, 17: // the alive mesh neighbors of 12
	default:
		t.Fatalf("witness %d is not a neighbor of 12", nt.Origin)
	}
	if !v.KnownAt(nt.Origin, idx) || v.KnownAt(12, idx) {
		t.Fatal("witness must know its own notice; the dead node must not")
	}

	// Revival is announced by the node itself.
	truth.Apply(fault.Event{Kind: fault.EvReviveNode, P: 12})
	idx2, ok := v.ObserveEvent(fault.Event{Kind: fault.EvReviveNode, P: 12}, truth)
	if !ok || v.log[idx2].Origin != 12 {
		t.Fatalf("revive-node witness = %+v, want origin 12", v.log[idx2])
	}

	// A fault with no live witness goes unnoticed: kill node 0 after
	// killing both of its neighbors.
	truth2 := fault.NewMap(side)
	for _, p := range []int{1, 5, 0} {
		truth2.Apply(fault.Event{Kind: fault.EvKillNode, P: p})
	}
	v2 := New(side, false, nil, 1)
	if _, ok := v2.ObserveEvent(fault.Event{Kind: fault.EvKillNode, P: 0}, truth2); ok {
		t.Fatal("corner death with dead neighbors must go unwitnessed")
	}
}

func TestTickPropagation(t *testing.T) {
	const side = 5
	truth := killNode(t, side, 0)
	v := New(side, false, nil, 7)
	idx, ok := v.ObserveEvent(fault.Event{Kind: fault.EvKillNode, P: 0}, truth)
	if !ok {
		t.Fatal("death of node 0 must be witnessed")
	}
	if v.quiet {
		t.Fatal("a fresh unpropagated notice must clear Quiet")
	}
	// One hop per round: the far corner (node 24) is ≤ 8 hops from any
	// witness; everything alive must know the notice within the mesh
	// diameter, at which point the view is quiet again.
	rounds := 0
	for !v.quiet {
		v.Tick(truth)
		rounds++
		if rounds > 2*side {
			t.Fatal("notice did not propagate within the diameter bound")
		}
	}
	for p := 1; p < side*side; p++ {
		if !v.KnownAt(p, idx) {
			t.Fatalf("live node %d missed the notice", p)
		}
		if !v.BeliefAt(p).NodeDead(0) {
			t.Fatalf("node %d's belief does not record the death", p)
		}
	}
	if v.KnownAt(0, idx) {
		t.Fatal("the dead node must not learn its own death notice")
	}
	st := v.Stats()
	if st.Notices != 1 || st.Applied < int64(side*side-2) || st.StaleMax == 0 {
		t.Fatalf("stats = %+v, want 1 notice applied everywhere with nonzero staleness", st)
	}
	hsum := int64(0)
	for _, h := range st.Hist {
		hsum += h
	}
	if hsum == 0 {
		t.Fatalf("staleness histogram is empty: %+v", st.Hist)
	}
}

func TestDeadNodeFrozenUntilRevival(t *testing.T) {
	const side = 3
	truth := killNode(t, side, 4) // center
	v := New(side, false, nil, 3)
	idx, _ := v.ObserveEvent(fault.Event{Kind: fault.EvKillNode, P: 4}, truth)
	for i := 0; i < 2*side; i++ {
		v.Tick(truth)
	}
	if v.KnownAt(4, idx) {
		t.Fatal("dead node must not receive gossip")
	}
	if !v.quiet {
		t.Fatal("view must be quiet once all live nodes know the log")
	}
	// Revival: the node announces itself and catches up by gossip.
	truth.Apply(fault.Event{Kind: fault.EvReviveNode, P: 4})
	v.ObserveEvent(fault.Event{Kind: fault.EvReviveNode, P: 4}, truth)
	for i := 0; i < 2*side; i++ {
		v.Tick(truth)
	}
	if !v.KnownAt(4, idx) {
		t.Fatal("revived node must learn the old death notice")
	}
	if !v.quiet {
		t.Fatal("view must requiesce after revival")
	}
}

func TestIntegrateDedupesAndFilters(t *testing.T) {
	const side = 5
	truth := killNode(t, side, 12)
	v := New(side, false, nil, 9)
	// Three shards observed the same discovery; one witness is dead;
	// one discovery is already believed (node 12's death after we seed
	// the belief via a first Integrate).
	d := Discovery{Witness: 7, Kind: fault.EvKillNode, P: 12}
	if got := v.Integrate([]Discovery{d, d, d}, truth); got != 1 {
		t.Fatalf("Integrate(dup×3) created %d notices, want 1", got)
	}
	if got := v.Integrate([]Discovery{d}, truth); got != 0 {
		t.Fatalf("re-Integrate of a believed discovery created %d notices, want 0", got)
	}
	dead := Discovery{Witness: 12, Kind: fault.EvKillLink, P: 12, Q: 13}
	if got := v.Integrate([]Discovery{dead}, truth); got != 0 {
		t.Fatalf("dead witness created %d notices, want 0", got)
	}
	// A different witness with a different observation still lands.
	d2 := Discovery{Witness: 17, Kind: fault.EvKillNode, P: 12}
	if got := v.Integrate([]Discovery{d2}, truth); got != 1 {
		t.Fatalf("fresh witness created %d notices, want 1", got)
	}
}

func TestLastWriteWinsByLogIndex(t *testing.T) {
	const side = 3
	truth := fault.NewMap(side)
	v := New(side, false, nil, 5)
	// Kill then revive node 2; node 6 (far corner) learns both notices
	// in one Tick batch and must converge to the newest state.
	truth.Apply(fault.Event{Kind: fault.EvKillNode, P: 2})
	v.ObserveEvent(fault.Event{Kind: fault.EvKillNode, P: 2}, truth)
	truth.Apply(fault.Event{Kind: fault.EvReviveNode, P: 2})
	v.ObserveEvent(fault.Event{Kind: fault.EvReviveNode, P: 2}, truth)
	for i := 0; i < 3*side; i++ {
		v.Tick(truth)
	}
	if !v.quiet {
		t.Fatal("view must requiesce")
	}
	for p := 0; p < side*side; p++ {
		if v.BeliefAt(p).NodeDead(2) {
			t.Fatalf("node %d believes 2 dead after kill→revive", p)
		}
	}
}

func TestImageRestoreRoundTrip(t *testing.T) {
	const side = 5
	truth := killNode(t, side, 12)
	truth.Apply(fault.Event{Kind: fault.EvSlowLink, P: 5, Q: 6, Factor: 4})
	v := New(side, false, nil, 11)
	v.ObserveEvent(fault.Event{Kind: fault.EvKillNode, P: 12}, truth)
	v.ObserveEvent(fault.Event{Kind: fault.EvSlowLink, P: 5, Q: 6, Factor: 4}, truth)
	v.Tick(truth)
	v.Tick(truth)

	img := v.Image()
	w := New(side, false, nil, 11)
	if err := w.Restore(img, truth); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if w.round != v.round || w.quiet != v.quiet || len(w.log) != len(v.log) {
		t.Fatalf("restored view differs: round %d/%d quiet %v/%v notices %d/%d",
			w.round, v.round, w.quiet, v.quiet, len(w.log), len(v.log))
	}
	if fmt.Sprintf("%+v", w.Stats()) != fmt.Sprintf("%+v", v.Stats()) {
		t.Fatalf("restored stats %+v != %+v", w.Stats(), v.Stats())
	}
	for p := 0; p < side*side; p++ {
		for i := 0; i < len(v.log); i++ {
			if w.KnownAt(p, i) != v.KnownAt(p, i) {
				t.Fatalf("knowledge of notice %d at node %d differs after restore", i, p)
			}
		}
		bw, bv := w.BeliefAt(p), v.BeliefAt(p)
		if bw.NodeDead(12) != bv.NodeDead(12) || bw.LinkDelay(5, 6) != bv.LinkDelay(5, 6) {
			t.Fatalf("belief at node %d differs after restore", p)
		}
	}
	// Restored views continue deterministically: one more tick each.
	v.Tick(truth)
	w.Tick(truth)
	if fmt.Sprintf("%+v", w.Stats()) != fmt.Sprintf("%+v", v.Stats()) {
		t.Fatalf("post-restore tick diverged: %+v != %+v", w.Stats(), v.Stats())
	}

	// Mismatched shapes are rejected.
	if err := New(3, false, nil, 0).Restore(img, truth); err == nil {
		t.Fatal("Restore with wrong node count must fail")
	}
}

// TestMemBytesCountsFrontier checks that MemBytes accounts for the
// frontier gossip buffers: the per-node marks from construction, and
// the frontier and candidate lists once a notice spreads.
func TestMemBytesCountsFrontier(t *testing.T) {
	const side = 9
	truth := killNode(t, side, 40)
	v := New(side, false, nil, 3)
	bare := v.MemBytes() - int64(cap(v.mark))
	if bare <= 0 || cap(v.mark) != side*side {
		t.Fatalf("fresh view: %d bytes without marks, %d marks", bare, cap(v.mark))
	}
	v.ObserveEvent(fault.Event{Kind: fault.EvKillNode, P: 40}, truth)
	v.Tick(truth)
	v.Tick(truth)
	if len(v.front) == 0 || cap(v.cand) == 0 {
		t.Fatal("a spreading notice must leave a frontier and candidates")
	}
	before, caps := v.MemBytes(), cap(v.front)+cap(v.cand)
	v.front, v.cand = slices.Grow(v.front, 1000), slices.Grow(v.cand, 1000)
	want := 4 * int64(cap(v.front)+cap(v.cand)-caps)
	if grew := v.MemBytes() - before; grew != want {
		t.Fatalf("MemBytes grew by %d after growing the frontier buffers, want %d", grew, want)
	}
}

// TestNetworkFaultSeen checks the flag the router's line-path guard
// reads: module faults and module notices leave it clear; a node or
// link fault in the base map or in any notice sets it, and a revival
// does not clear it; a Restore recomputes it from the restored log.
func TestNetworkFaultSeen(t *testing.T) {
	const side = 5
	truth := fault.NewMap(side).KillModule(3)
	if New(side, false, truth, 1).NetworkFaultSeen() {
		t.Fatal("module-only base map: network fault seen")
	}
	if !New(side, false, fault.NewMap(side).SlowLink(0, 1, 3), 1).NetworkFaultSeen() {
		t.Fatal("base map with a slow link: no network fault seen")
	}
	v := New(side, false, truth, 1)
	observe := func(ev fault.Event, want bool) {
		t.Helper()
		truth.Apply(ev)
		if _, ok := v.ObserveEvent(ev, truth); !ok {
			t.Fatalf("%v went unwitnessed", ev.Kind)
		}
		v.TickN(truth, 3)
		if got := v.NetworkFaultSeen(); got != want {
			t.Fatalf("after %v: NetworkFaultSeen %v, want %v", ev.Kind, got, want)
		}
	}
	observe(fault.Event{Kind: fault.EvKillModule, P: 7}, false)
	observe(fault.Event{Kind: fault.EvReviveModule, P: 7}, false)
	img := v.Image()
	observe(fault.Event{Kind: fault.EvKillNode, P: 12}, true)
	observe(fault.Event{Kind: fault.EvReviveNode, P: 12}, true)
	if !truth.NetworkHealthy() {
		t.Fatal("truth still holds a network fault after the revival")
	}
	if err := v.Restore(img, truth); err != nil {
		t.Fatal(err)
	}
	if v.NetworkFaultSeen() {
		t.Fatal("restored to a module-only log: network fault still seen")
	}
}

// TestTickNEmptyLog checks that quiet rounds cost nothing but still
// count: an empty log advances the round by exactly the batch size.
func TestTickNEmptyLog(t *testing.T) {
	v := New(4, true, nil, 1)
	v.TickN(nil, 0)
	v.TickN(nil, 1000)
	if v.round != 1000 {
		t.Fatalf("round %d after TickN(1000) on an empty log", v.round)
	}
}
