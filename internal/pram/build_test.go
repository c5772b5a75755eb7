package pram

import (
	"reflect"
	"testing"

	"meshpram/internal/sim"
)

// TestScenarioProgramsBuildable pins sim.Programs against BuildProgram:
// every name a Scenario may carry constructs, with a sane output range.
func TestScenarioProgramsBuildable(t *testing.T) {
	for _, name := range sim.Programs {
		prog, err := BuildProgram(name, 8, 1)
		if err != nil {
			t.Errorf("BuildProgram(%q): %v", name, err)
			continue
		}
		out, ok := prog.(Outputs)
		if !ok {
			t.Errorf("program %q does not implement Outputs", name)
			continue
		}
		base, n := out.OutputRange()
		if base < 0 || n < 1 {
			t.Errorf("program %q output range (%d, %d) is degenerate", name, base, n)
		}
	}
	if _, err := BuildProgram("quicksort", 8, 1); err == nil {
		t.Error("BuildProgram accepted an unknown program name")
	}
	if _, err := BuildProgram("prefixsum", 0, 1); err == nil {
		t.Error("BuildProgram accepted size 0")
	}
}

// TestBuildProgramSeeded checks the same (name, size, seed) always
// yields the same program, and different seeds differ.
func TestBuildProgramSeeded(t *testing.T) {
	for _, name := range sim.Programs {
		a, err := BuildProgram(name, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildProgram(name, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("program %q not deterministic for equal seeds", name)
		}
	}
}

// TestProgramWordsFit pins the address space Scenario.Validate
// reserves for each program: the smallest ideal_memory it accepts is
// exactly the memory the program needs to run.
func TestProgramWordsFit(t *testing.T) {
	const size = 8
	for _, name := range sim.Programs {
		sc := sim.DefaultScenario()
		sc.Backend, sc.Program, sc.Size = sim.BackendIdeal, name, size
		words := 0
		for w := 1; w <= 1024 && words == 0; w++ {
			if sc.IdealMemory = w; sc.Validate() == nil {
				words = w
			}
		}
		if words == 0 {
			t.Errorf("%s: no ideal memory up to 1024 words accepted", name)
			continue
		}
		run := func(mem int) error {
			prog, err := BuildProgram(name, size, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(prog, newIdeal(mem))
			return err
		}
		if err := run(words); err != nil {
			t.Errorf("%s: does not run in the %d words Validate accepts: %v", name, words, err)
		}
		if err := run(words - 1); err == nil {
			t.Errorf("%s: runs in %d words, less than Validate demands", name, words-1)
		}
	}
}
