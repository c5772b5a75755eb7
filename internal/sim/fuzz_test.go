package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

// FuzzScenario feeds arbitrary JSON through the strict DecodeScenario
// and Scenario.Validate and, for meshes small enough to build quickly
// (side ≤ 27), on through FromScenario, NewBackend and BuildProgram
// without running the program. Every input must end in an error or a value, never a panic.
func FuzzScenario(f *testing.F) {
	add := func(edit func(*sim.Scenario)) {
		sc := sim.DefaultScenario()
		edit(&sc)
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	add(func(*sim.Scenario) {})
	add(func(sc *sim.Scenario) { sc.Side, sc.D, sc.Program, sc.Size = 27, 5, "matvec", 16 })
	add(func(sc *sim.Scenario) {
		sc.Backend, sc.Program, sc.Size, sc.IdealMemory = sim.BackendIdeal, "listrank", 500, 0
	})
	add(func(sc *sim.Scenario) {
		sc.Faults, sc.Torus, sc.Sort = "rand:link=0.1,module=0.05,seed=3;node:4", true, "rotate"
	})
	add(func(sc *sim.Scenario) {
		sc.FaultSchedule = "churn:module=0.01,repair=12,until=40,seed=2;@3 module:40"
		sc.FaultView, sc.Repair, sc.Retry = "local", "eager", 2
	})
	add(func(sc *sim.Scenario) { sc.Backend, sc.IdealMemory = sim.BackendIdeal, 1<<62 })
	add(func(sc *sim.Scenario) { sc.Backend, sc.Size = sim.BackendIdeal, 1<<62 })
	f.Add([]byte(`{"side":9,"q":3,"d":9223372036854775807,"k":9223372036854775807,"program":"reduce","size":4,"backend":"mesh"}`))
	f.Add([]byte(`{"side":9,"q":3,"d":60,"k":2,"program":"reduce","size":4,"backend":"mesh"}`))
	f.Add([]byte(`{"side":4096,"q":512,"d":2,"k":1,"program":"compact","size":1,"faults":"node:1"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sc sim.Scenario
		if sim.DecodeScenario(bytes.NewReader(data), &sc) != nil {
			return
		}
		sc = sc.Normalized()
		if sc.Validate() != nil || sc.Side > 27 {
			return
		}
		cfg, err := sim.FromScenario(sc)
		if err != nil {
			return
		}
		if sc.Backend != sim.BackendMesh {
			if _, err := pram.NewBackend(pram.BackendIdeal, cfg); err != nil {
				t.Fatalf("ideal backend of a valid scenario: %v", err)
			}
		}
		if sc.Backend != sim.BackendIdeal {
			if _, err := pram.NewBackend(pram.BackendMesh, cfg); err != nil {
				return
			}
		}
		if _, err := pram.BuildProgram(sc.Program, sc.Size, sc.Seed); err != nil {
			t.Fatalf("program of a valid scenario: %v", err)
		}
	})
}
