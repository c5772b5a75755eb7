// Package sim is the single front door for constructing simulations.
// A Scenario is the one declarative configuration: a flat,
// JSON-round-trippable value naming the HMOS parameters
// (internal/hmos), the protocol variant (internal/core), the fault
// specs (internal/fault) and the run-level knobs. FromScenario checks
// it, parses every enum and fault spec once, builds the HMOS scheme
// and returns a Config. Backends consume the Config through
// pram.NewBackend; code that drives the core simulator directly calls
// Config.NewSimulator. The CLIs, the HTTP service, the experiments and
// the benchmark all construct through FromScenario, so every machine
// knob has exactly one spelling: its Scenario field.
//
//	sc := sim.DefaultScenario()
//	sc.Side, sc.D = 27, 5
//	sc.Faults = "rand:link=0.02,seed=7"
//	cfg, err := sim.FromScenario(sc)
//	backend, err := pram.NewBackend(pram.BackendMesh, cfg)
//
// Options carry only what JSON cannot: a trace sink and a pre-built
// scheme.
package sim

import (
	"fmt"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
	"meshpram/internal/trace"
)

// Config is a validated simulation configuration. Obtain one through
// FromScenario; the zero value is not usable.
type Config struct {
	// Params are the HMOS parameters (mesh side, q, d, k).
	Params hmos.Params
	// Core is the protocol configuration handed to core.New, including
	// the fault map and schedule parsed from the scenario's specs.
	Core core.Config
	// Sinks receive every completed root span of the simulator's
	// ledger.
	Sinks []trace.Sink
	// IdealMemory overrides the ideal backend's memory size in words
	// (0 = the scheme's variable count M).
	IdealMemory int
	// Retry is the checkpointed-retry budget of the mesh backend: a
	// PRAM step ending with unrecoverable variables is rolled back and
	// re-executed up to Retry times (0 = off; see pram.Mesh.SetRetryBudget).
	Retry int

	scheme *hmos.Scheme
}

// Option attaches a value a Scenario cannot serialize.
type Option func(*Config) error

// TraceSink registers a sink receiving every completed root span of
// the simulator's cost ledger. May be given multiple times.
func TraceSink(s trace.Sink) Option {
	return func(c *Config) error {
		if s != nil {
			c.Sinks = append(c.Sinks, s)
		}
		return nil
	}
}

// UseScheme installs a pre-constructed HMOS scheme, skipping the
// (expensive, deterministic) hmos.New construction in FromScenario.
// The scheme's parameters must match the scenario's Side/Q/D/K exactly
// — a mismatch is a construction error, never a silent rebuild.
// Schemes are immutable after construction, so a warm pool
// (internal/serve) can reuse one across many simulator builds.
func UseScheme(s *hmos.Scheme) Option {
	return func(c *Config) error {
		if s == nil {
			return fmt.Errorf("sim: UseScheme requires a non-nil scheme")
		}
		c.scheme = s
		return nil
	}
}

// FromScenario checks the scenario, resolves it into a Config and
// builds its HMOS scheme (unless a hook installs one with UseScheme).
// The run-level fields (program, size, backend, trace) are not part of
// a Config — callers execute them through pram.BuildProgram and
// pram.NewBackend. The hooks are applied after the scenario's fields.
func FromScenario(sc Scenario, hooks ...Option) (Config, error) {
	c, err := sc.resolve()
	if err != nil {
		return Config{}, err
	}
	for _, o := range hooks {
		if err := o(&c); err != nil {
			return Config{}, err
		}
	}
	if c.scheme == nil {
		if c.scheme, err = hmos.New(c.Params); err != nil {
			return Config{}, fmt.Errorf("sim: %w", err)
		}
	} else if c.scheme.Params != c.Params {
		return Config{}, fmt.Errorf("sim: UseScheme params %+v do not match configured params %+v",
			c.scheme.Params, c.Params)
	}
	return c, nil
}

// Vars returns the shared-memory size M of the configured scheme.
func (c Config) Vars() (int, error) {
	s, err := c.Scheme()
	if err != nil {
		return 0, err
	}
	return s.Vars(), nil
}

// Scheme returns the HMOS scheme built (or installed via UseScheme) by
// FromScenario.
func (c Config) Scheme() (*hmos.Scheme, error) {
	if c.scheme == nil {
		return nil, fmt.Errorf("sim: Config has no scheme (build it with FromScenario)")
	}
	return c.scheme, nil
}

// NewSimulator builds the core protocol simulator for this
// configuration and wires the registered trace sinks onto its ledger.
// The Config's scheme is reused, so repeated simulator builds from one
// Config — or from Configs sharing a UseScheme scheme — skip the HMOS
// construction.
func (c Config) NewSimulator() (*core.Simulator, error) {
	scheme, err := c.Scheme()
	if err != nil {
		return nil, err
	}
	s, err := core.NewWithScheme(scheme, c.Core)
	if err != nil {
		return nil, err
	}
	for _, sink := range c.Sinks {
		s.Ledger().AddSink(sink)
	}
	return s, nil
}
