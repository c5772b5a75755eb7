package core_test

import (
	"fmt"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
)

// ExampleSimulator_Step simulates one PRAM write step followed by a
// read step on a 9×9 mesh.
func ExampleSimulator_Step() {
	sim, err := core.New(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, core.Config{})
	if err != nil {
		panic(err)
	}

	sim.Step([]core.Op{{Origin: 0, Var: 42, IsWrite: true, Value: 7}})
	vals, st := sim.Step([]core.Op{{Origin: 80, Var: 42}})

	fmt.Println("read:", vals[0])
	fmt.Println("packets routed:", st.Packets)
	// Output:
	// read: 7
	// packets routed: 4
}

// ExampleSimulator_Step_batch shows a full-machine step: every
// processor writes a distinct variable in one PRAM step.
func ExampleSimulator_Step_batch() {
	sim, err := core.New(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, core.Config{})
	if err != nil {
		panic(err)
	}
	n := sim.Mesh().N

	ops := make([]core.Op, n)
	for i := range ops {
		ops[i] = core.Op{Origin: i, Var: i, IsWrite: true, Value: core.Word(i)}
	}
	_, st := sim.Step(ops)

	fmt.Println("ops:", n)
	fmt.Println("copies per variable accessed:", st.Packets/n)
	fmt.Println("level-1 page load within Theorem 3 bound:",
		st.PageLoadMax[1] <= st.PageLoadBound[1])
	// Output:
	// ops: 81
	// copies per variable accessed: 4
	// level-1 page load within Theorem 3 bound: true
}
