package fault

import (
	"reflect"
	"strings"
	"testing"
)

func TestNilMapIsHealthy(t *testing.T) {
	var f *Map
	if !f.Empty() || f.Side() != 0 {
		t.Errorf("nil map: Empty=%v Side=%d", f.Empty(), f.Side())
	}
	if f.NodeDead(3) || f.ModuleDead(3) || !f.LinkUp(0, 1) {
		t.Error("nil map must report every component healthy")
	}
	if f.LinkDelay(0, 1) != 1 || f.MaxDelay() != 1 {
		t.Error("nil map must report delay 1 everywhere")
	}
	n, l, m, s := f.Counts()
	if n+l+m+s != 0 {
		t.Errorf("nil map counts = %d/%d/%d/%d", n, l, m, s)
	}
}

func TestMapQueries(t *testing.T) {
	f := NewMap(3)
	if !f.Empty() {
		t.Error("fresh map not empty")
	}
	f.KillNode(4).KillModule(2).KillLink(0, 1).SlowLink(7, 8, 4)

	if !f.NodeDead(4) || !f.ModuleDead(4) {
		t.Error("dead node must also kill its module")
	}
	if f.LinkUp(4, 5) || f.LinkUp(1, 4) {
		t.Error("links of a dead node must be down")
	}
	if !f.ModuleDead(2) || f.NodeDead(2) {
		t.Error("module fault must leave the node alive")
	}
	if !f.LinkUp(2, 5) {
		t.Error("module fault must not take links down")
	}
	if f.LinkUp(0, 1) || !f.LinkUp(1, 2) {
		t.Error("dead link 0-1 wrongly reported")
	}
	if f.LinkDelay(7, 8) != 4 || f.LinkDelay(8, 7) != 4 || f.MaxDelay() != 4 {
		t.Errorf("slow link delay = %d/%d max %d, want 4", f.LinkDelay(7, 8), f.LinkDelay(8, 7), f.MaxDelay())
	}
	if !f.LinkUp(7, 8) {
		t.Error("slow link must stay up")
	}
	n, l, m, s := f.Counts()
	if n != 1 || l != 1 || m != 1 || s != 1 {
		t.Errorf("counts = %d/%d/%d/%d, want 1/1/1/1", n, l, m, s)
	}
	if f.Empty() {
		t.Error("marked map reported empty")
	}
	if got := f.String(); !strings.Contains(got, "1 dead nodes") {
		t.Errorf("String() = %q", got)
	}

	// Idempotence: re-marking must not inflate the fault count.
	f.KillNode(4).KillModule(2).KillLink(0, 1)
	if n2, l2, m2, _ := f.Counts(); n2 != 1 || l2 != 1 || m2 != 1 {
		t.Error("re-marking inflated counts")
	}
}

func TestMapWrapEdges(t *testing.T) {
	f := NewMap(3)
	// 0 and 2 are row-wrap neighbors on a 3×3 torus; 0 and 6 column-wrap.
	f.KillLink(0, 2)
	f.SlowLink(0, 6, 3)
	if f.LinkUp(0, 2) || f.LinkDelay(0, 6) != 3 {
		t.Error("wrap edges not marked")
	}
}

func TestMapValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(f *Map)
	}{
		{"node out of range", func(f *Map) { f.KillNode(9) }},
		{"module negative", func(f *Map) { f.KillModule(-1) }},
		{"non-adjacent link", func(f *Map) { f.KillLink(0, 4) }},
		{"slow factor 1", func(f *Map) { f.SlowLink(0, 1, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewMap(3))
		})
	}
}

func TestModelDeterministic(t *testing.T) {
	mo := Model{NodeRate: 0.1, LinkRate: 0.2, ModuleRate: 0.1, SlowRate: 0.2, Seed: 7}
	a, b := mo.Build(9), mo.Build(9)
	if !reflect.DeepEqual(a, b) {
		t.Error("same model+seed built different maps")
	}
	mo.Seed = 8
	c := mo.Build(9)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds built identical maps (suspicious)")
	}
	zero := Model{Seed: 3}.Build(9)
	if !zero.Empty() {
		t.Error("all-zero rates must build an empty map")
	}
}

func TestParse(t *testing.T) {
	f, err := Parse(9, "node:3,17;link:5-6;module:40;slow:7-8x4")
	if err != nil {
		t.Fatal(err)
	}
	if !f.NodeDead(3) || !f.NodeDead(17) || f.LinkUp(5, 6) || !f.ModuleDead(40) || f.LinkDelay(7, 8) != 4 {
		t.Errorf("parsed map wrong: %s", f)
	}

	if f, err := Parse(9, ""); err != nil || f != nil {
		t.Errorf("empty spec: map=%v err=%v, want nil/nil", f, err)
	}
	if f, err := Parse(9, "rand:link=0,module=0,seed=5"); err != nil || f != nil {
		t.Errorf("zero-rate rand spec: map=%v err=%v, want nil/nil", f, err)
	}

	r1, err := Parse(9, "rand:link=0.05,module=0.02,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	r2 := Model{LinkRate: 0.05, ModuleRate: 0.02, Seed: 7}.Build(9)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("rand spec and equivalent Model built different maps")
	}

	for _, bad := range []string{
		"nonsense", "node:", "node:99999", "link:0-4", "link:5",
		"slow:7-8", "slow:7-8x1", "rand:link=2", "rand:bogus=1", "rand:link",
		// A rand slow factor below 2 is rejected like slow:7-8x1, not
		// silently replaced by the default.
		"rand:slow=0.5,factor=1", "rand:slow=0.5,factor=-3", "rand:slow=0.5,factor=0",
	} {
		if _, err := Parse(9, bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseRandFactor checks that an accepted rand factor is the one
// the slow links get.
func TestParseRandFactor(t *testing.T) {
	f, err := Parse(9, "rand:slow=0.5,factor=2,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxDelay() != 2 {
		t.Errorf("rand factor=2 built slow links with period %d", f.MaxDelay())
	}
}

// TestNetworkHealthy walks one map through every component class and
// back: module marks leave the network healthy, node, link and slow
// marks do not, clearing them restores it, and Clone carries the state.
func TestNetworkHealthy(t *testing.T) {
	var nilMap *Map
	if !nilMap.NetworkHealthy() {
		t.Fatal("nil map: network not healthy")
	}
	f := NewMap(9)
	step := func(label string, ev Event, want bool) {
		t.Helper()
		f.Apply(ev)
		if got := f.NetworkHealthy(); got != want {
			t.Errorf("after %s: NetworkHealthy = %v, want %v", label, got, want)
		}
		if got := f.Clone().NetworkHealthy(); got != want {
			t.Errorf("after %s: clone NetworkHealthy = %v, want %v", label, got, want)
		}
	}
	step("kill-module", Event{Kind: EvKillModule, P: 4}, true)
	step("kill-node", Event{Kind: EvKillNode, P: 5}, false)
	step("kill-node again", Event{Kind: EvKillNode, P: 5}, false)
	step("revive-node", Event{Kind: EvReviveNode, P: 5}, true)
	step("kill-link", Event{Kind: EvKillLink, P: 0, Q: 1}, false)
	step("slow-link", Event{Kind: EvSlowLink, P: 2, Q: 3, Factor: 3}, false)
	step("revive-link", Event{Kind: EvReviveLink, P: 0, Q: 1}, false)
	step("slow-link refactor", Event{Kind: EvSlowLink, P: 2, Q: 3, Factor: 5}, false)
	step("heal-link", Event{Kind: EvHealLink, P: 2, Q: 3}, true)
	step("revive-module", Event{Kind: EvReviveModule, P: 4}, true)
	if !f.Empty() {
		t.Errorf("map not empty after every mark was cleared: %s", f)
	}
}

func TestStepReport(t *testing.T) {
	var nilRep *StepReport
	if nilRep.Degraded() {
		t.Error("nil report degraded")
	}
	if got := (&StepReport{Ops: 5}).String(); got != "healthy" {
		t.Errorf("clean report String() = %q", got)
	}
	r := &StepReport{Ops: 4, LostPackets: 2, Unrecoverable: []int{3, 1}}
	if !r.Degraded() {
		t.Error("lossy report not degraded")
	}
	r.Merge(&StepReport{Ops: 2, DeadOrigins: 1, Unrecoverable: []int{0}})
	r.Merge(nil)
	want := &StepReport{Ops: 6, DeadOrigins: 1, LostPackets: 2, Unrecoverable: []int{3, 1, 0}}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("merged = %+v, want %+v", r, want)
	}
	if got := r.String(); !strings.Contains(got, "unrecoverable=[0 1 3]") {
		t.Errorf("String() = %q", got)
	}
}

func TestStepReportMergeEdgeCases(t *testing.T) {
	// A nil receiver is a no-op, mirroring the nil-argument case: the
	// retry loop merges the final attempt unconditionally and must not
	// care whether either side exists.
	var nilRep *StepReport
	nilRep.Merge(&StepReport{Ops: 3, LostPackets: 1})
	if nilRep != nil {
		t.Fatal("nil receiver grew state")
	}

	// Disjoint unrecoverable sets concatenate without loss.
	a := &StepReport{Ops: 1, Unrecoverable: []int{2}}
	a.Merge(&StepReport{Ops: 1, Unrecoverable: []int{7, 9}})
	if want := []int{2, 7, 9}; !reflect.DeepEqual(a.Unrecoverable, want) {
		t.Errorf("disjoint merge = %v, want %v", a.Unrecoverable, want)
	}

	// Overlapping sets keep their duplicates: Merge is a plain
	// accumulator and callers that count failures per round rely on
	// one entry per failed op, not a deduplicated set.
	b := &StepReport{Unrecoverable: []int{4}}
	b.Merge(&StepReport{Unrecoverable: []int{4, 4}})
	if want := []int{4, 4, 4}; !reflect.DeepEqual(b.Unrecoverable, want) {
		t.Errorf("overlapping merge = %v, want %v", b.Unrecoverable, want)
	}

	// Merging an empty report changes nothing but Ops accounting.
	c := &StepReport{Ops: 2, DeadOrigins: 1}
	c.Merge(&StepReport{})
	if want := (&StepReport{Ops: 2, DeadOrigins: 1}); !reflect.DeepEqual(c, want) {
		t.Errorf("empty merge = %+v, want %+v", c, want)
	}
}
