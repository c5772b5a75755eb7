package fault

import (
	"reflect"
	"testing"
)

func TestScheduleReplayCursor(t *testing.T) {
	s := NewSchedule(3)
	// Added out of time order; replay must sort stably by step.
	s.Add(Event{Step: 5, Kind: EvKillModule, P: 4})
	s.Add(Event{Step: 0, Kind: EvKillNode, P: 1})
	s.Add(Event{Step: 5, Kind: EvReviveNode, P: 1})

	evs, cur := s.EventsBefore(0, 1) // step 1 sees step-0 events only
	if len(evs) != 1 || evs[0].Kind != EvKillNode || cur != 1 {
		t.Fatalf("EventsBefore(0,1) = %v cursor %d, want the step-0 kill", evs, cur)
	}
	evs, cur2 := s.EventsBefore(cur, 6) // both step-5 events, insertion order
	if len(evs) != 2 || evs[0].Kind != EvKillModule || evs[1].Kind != EvReviveNode || cur2 != 3 {
		t.Fatalf("EventsBefore(%d,6) = %v cursor %d", cur, evs, cur2)
	}
	if evs, cur3 := s.EventsBefore(cur2, 100); len(evs) != 0 || cur3 != cur2 {
		t.Fatalf("exhausted cursor must stay put, got %v cursor %d", evs, cur3)
	}
	if s.MaxStep() != 5 {
		t.Fatalf("MaxStep = %d, want 5", s.MaxStep())
	}
}

func TestScheduleValidation(t *testing.T) {
	s := NewSchedule(3)
	for _, ev := range []Event{
		{Step: -1, Kind: EvKillNode, P: 0},
		{Step: 0, Kind: EvKillNode, P: 9},
		{Step: 0, Kind: EvKillLink, P: 0, Q: 4}, // not a mesh edge
		{Step: 0, Kind: EvSlowLink, P: 0, Q: 1, Factor: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", ev)
				}
			}()
			s.Add(ev)
		}()
	}
}

func TestApplyWorksOnFrozenMap(t *testing.T) {
	f := NewMap(3).KillNode(0).Freeze()
	if !f.frozen {
		t.Fatal("Freeze did not mark the map")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KillNode on a frozen map did not panic")
			}
		}()
		f.KillNode(1)
	}()
	// Apply is the dynamic mutation point: it must work on frozen maps.
	f.Apply(Event{Step: 1, Kind: EvKillModule, P: 4})
	if !f.ModuleDead(4) {
		t.Error("Apply(kill-module) had no effect")
	}
	f.Apply(Event{Step: 2, Kind: EvReviveNode, P: 0})
	if f.NodeDead(0) {
		t.Error("Apply(revive-node) had no effect")
	}
}

func TestCloneIsDeepAndUnfrozen(t *testing.T) {
	f := NewMap(3).KillModule(2).SlowLink(0, 1, 4).Freeze()
	c := f.Clone()
	if c.frozen {
		t.Fatal("Clone must be unfrozen")
	}
	c.KillModule(5) // mutable again
	if f.ModuleDead(5) {
		t.Error("mutating the clone leaked into the original")
	}
	if !c.ModuleDead(2) || c.LinkDelay(0, 1) != 4 {
		t.Error("clone lost state of the original")
	}
	if (*Map)(nil).Clone() != nil {
		t.Error("nil.Clone() must stay nil")
	}
}

func TestChurnDeterministicAndRevives(t *testing.T) {
	ch := Churn{ModuleRate: 0.05, NodeRate: 0.02, Repair: 7, Horizon: 50, Seed: 3}
	a, b := ch.Build(5), ch.Build(5)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed must build the identical schedule")
	}
	if a.Empty() {
		t.Fatal("expected some churn at these rates")
	}
	// Every kill is paired with its revive exactly Repair steps later.
	kills, revives := 0, 0
	for _, ev := range a.Events() {
		switch ev.Kind {
		case EvKillNode, EvKillModule:
			kills++
		case EvReviveNode, EvReviveModule:
			revives++
		}
	}
	if kills == 0 || kills != revives {
		t.Fatalf("kills %d, revives %d — want equal and positive", kills, revives)
	}
	for _, ev := range a.Events() {
		if ev.Kind != EvKillNode && ev.Kind != EvKillModule {
			continue
		}
		found := false
		for _, rev := range a.Events() {
			if rev.Kind == ev.Kind+1 && rev.P == ev.P && rev.Step == ev.Step+7 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("kill %v has no matching revive 7 steps later", ev)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule(3, "@0 module:4;@10 node:1,2; @25 revive-node:1 ;@5 slow:0-1x4;@9 heal:0-1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	evs := s.Events()
	if evs[0].Kind != EvKillModule || evs[0].P != 4 || evs[0].Step != 0 {
		t.Fatalf("first event %v", evs[0])
	}
	if evs[len(evs)-1].Kind != EvReviveNode || evs[len(evs)-1].Step != 25 {
		t.Fatalf("last event %v", evs[len(evs)-1])
	}

	if s, err := ParseSchedule(3, ""); err != nil || s != nil {
		t.Fatalf("empty spec: got %v, %v — want nil, nil", s, err)
	}
	if s, err := ParseSchedule(3, " ; "); err != nil || s != nil {
		t.Fatalf("blank segments: got %v, %v — want nil, nil", s, err)
	}

	for _, bad := range []string{
		"module:4",                       // missing @STEP
		"@x module:4",                    // bad step
		"@-1 module:4",                   // negative step
		"@0 gremlin:4",                   // unknown kind
		"@0 module:9",                    // id out of range
		"@0 link:0-4",                    // not an edge
		"@0 slow:0-1",                    // missing factor
		"@0 slow:0-1x1",                  // factor < 2
		"churn:module=2,until=9",         // rate out of range
		"churn:module=0.1",               // missing until
		"churn:module=0.1,until=9999999", // over the spec cap
		"churn:bogus=1,until=9",          // unknown key
	} {
		if _, err := ParseSchedule(3, bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted a bad spec", bad)
		}
	}
}

func TestParseScheduleChurnMatchesBuild(t *testing.T) {
	s, err := ParseSchedule(5, "churn:module=0.05,repair=7,until=50,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	want := Churn{ModuleRate: 0.05, Repair: 7, Horizon: 50, Seed: 3}.Build(5)
	if !reflect.DeepEqual(s.Events(), want.Events()) {
		t.Fatal("parsed churn differs from the programmatic build")
	}
}
