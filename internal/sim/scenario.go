package sim

// Scenario is the one configuration surface: a flat,
// JSON-round-trippable description of one simulation run covering
// every machine knob plus the run-level ones (program, size, seed,
// backend, trace) the CLIs and the scenario service need. FromScenario
// resolves it into a Config; Canonical and Key make it the comparison
// and cache-key path too.
//
// Determinism contract: Canonical returns a byte-deterministic
// encoding (fixed key order, no maps, quoted strings) of the
// normalized scenario, and Key hashes it — identical scenarios always
// produce identical keys, which is what makes results of the
// deterministic simulation perfectly cacheable.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"meshpram/internal/core"
	"meshpram/internal/fault"
	"meshpram/internal/faultview"
	"meshpram/internal/hmos"
	"meshpram/internal/route"
)

// Enum spellings shared by the CLI flags, the JSON wire format and the
// canonical encoding. The zero string of every enum field normalizes
// to the explicit default, so omitted JSON fields and spelled-out
// defaults produce the same canonical bytes.
const (
	// Backends (BackendBoth runs ideal and mesh and reports slowdown).
	BackendBoth  = "both"
	BackendIdeal = "ideal"
	BackendMesh  = "mesh"
)

// Programs lists the PRAM programs a Scenario can name, in canonical
// order. pram.BuildProgram accepts exactly these names (pinned by
// TestScenarioProgramsBuildable).
var Programs = []string{"compact", "listrank", "matvec", "oddevensort", "prefixsum", "reduce"}

// Scenario is one serializable simulation request. The zero value is
// not runnable; start from DefaultScenario or normalize with
// Normalized. All fields are value types — a Scenario can be compared,
// copied and hashed freely.
type Scenario struct {
	// Machine shape (hmos.Params).
	Side int `json:"side"` // mesh side; n = side²
	Q    int `json:"q"`    // copies per replication step (prime power ≥ 3)
	D    int `json:"d"`    // memory dimension: M = f(q, d) variables
	K    int `json:"k"`    // HMOS levels

	// Workload.
	Program string `json:"program"` // one of Programs
	Size    int    `json:"size"`    // problem size (processors used)
	Seed    int64  `json:"seed"`    // input seed

	// Run shape.
	Backend string `json:"backend,omitempty"` // both | ideal | mesh ("" = both)

	// Protocol variants and ablations.
	Policy         string `json:"policy,omitempty"` // majority | rowa ("" = majority)
	Torus          bool   `json:"torus,omitempty"`
	Sort           string `json:"sort,omitempty"` // shear | rotate ("" = shear)
	DisableCulling bool   `json:"disable_culling,omitempty"`
	DirectRouting  bool   `json:"direct_routing,omitempty"`

	// Faults and self-healing.
	Faults        string `json:"faults,omitempty"`         // static spec (fault.Parse)
	FaultSchedule string `json:"fault_schedule,omitempty"` // dynamic timeline (fault.ParseSchedule)
	FaultView     string `json:"fault_view,omitempty"`     // global | local ("" = global)
	Repair        string `json:"repair,omitempty"`         // off | eager | lazy ("" = off)
	Retry         int    `json:"retry,omitempty"`          // checkpointed-retry budget

	// Workers is accepted and ignored: the routing engine is sequential.
	// It stays so that existing scenario files still decode; Normalized
	// zeroes it, so it changes neither the canonical encoding nor the key.
	Workers int `json:"workers,omitempty"`

	// Backend details.
	IdealMemory int `json:"ideal_memory,omitempty"` // ideal backend words (0 = scheme M)

	// Trace requests the rendered cost-ledger tree of the last PRAM
	// step in the result. Part of the scenario (and therefore the cache
	// key) so response bodies stay byte-identical per key.
	Trace bool `json:"trace,omitempty"`
}

// DefaultScenario is the smallest two-level instance running prefix
// sums — the same defaults the pramsim CLI has always had.
func DefaultScenario() Scenario {
	return Scenario{
		Side: 9, Q: 3, D: 3, K: 2,
		Program: "prefixsum", Size: 64, Seed: 1,
		Backend: BackendBoth,
		Policy:  "majority", Sort: "shear",
		FaultView: "global", Repair: "off",
		IdealMemory: 1 << 20,
	}
}

// DecodeScenario is the one strict JSON decoder of a Scenario, shared
// by the CLI's -scenario file, the service and the fuzzer. It decodes
// the single JSON value in r over sc, so omitted fields keep sc's
// values; an unknown field (a misspelled knob) or anything after the
// first value is an error rather than a silently different run.
func DecodeScenario(r io.Reader, sc *Scenario) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(sc); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Normalized returns a copy with every empty enum field replaced by
// its explicit default spelling and the ignored Workers zeroed, so
// semantically equal scenarios have equal canonical encodings.
func (sc Scenario) Normalized() Scenario {
	sc.Workers = 0
	if sc.Backend == "" {
		sc.Backend = BackendBoth
	}
	if sc.Policy == "" {
		sc.Policy = "majority"
	}
	if sc.Sort == "" {
		sc.Sort = "shear"
	}
	if sc.FaultView == "" {
		sc.FaultView = "global"
	}
	if sc.Repair == "" {
		sc.Repair = "off"
	}
	return sc
}

// fieldError is a Validate failure attributed to one Scenario field,
// named by its JSON key.
type fieldError struct {
	Field string
	Err   error
}

func (e *fieldError) Error() string { return fmt.Sprintf("scenario: %s: %v", e.Field, e.Err) }
func (e *fieldError) Unwrap() error { return e.Err }

func fieldErrf(field, format string, args ...any) error {
	return &fieldError{Field: field, Err: fmt.Errorf(format, args...)}
}

// Scenario bounds. They keep every size Validate accepts allocatable,
// so no field value can crash a CLI run or a pramserve request.
const (
	// MaxSide bounds the mesh side (n ≤ 2^24 processors), which bounds
	// fault maps, mesh programs and every word count derived from n.
	MaxSide = 1 << 12
	// MaxIdealMemory bounds the memory of a scenario's ideal backend in
	// words (32 MiB), whether set by ideal_memory or defaulted to the
	// scheme's M.
	MaxIdealMemory = 1 << 22
	// MaxRetry bounds the checkpointed-retry budget of pram's mesh
	// backend, which clamps to it. Attempt i charges 2^(i−1) backoff
	// steps, so one step's backoff stays below 2^MaxRetry, and the
	// default run-wide rollback cap of 16 × budget retries keeps a
	// run's total below 2^40, far from int64 overflow.
	MaxRetry = 32
)

// Validate checks the scenario without constructing a machine: enum
// spellings, structural parameter bounds, that the program's inputs
// fit each backend's memory, and the fault specs (parsed against the
// mesh side). Errors name the offending JSON field. Parameter
// combinations that only the full HMOS construction can judge (prime
// powers, tessellation divisibility) surface from FromScenario.
func (sc Scenario) Validate() error {
	_, err := sc.resolve()
	return err
}

// resolve is the one pass from a Scenario to a Config, shared by
// Validate and FromScenario: it normalizes the scenario, checks every
// field, and parses each enum and fault spec once straight into
// core.Config. It builds no HMOS scheme.
func (sc Scenario) resolve() (Config, error) {
	sc = sc.Normalized()
	if sc.Side < 1 || sc.Side > MaxSide {
		return Config{}, fieldErrf("side", "mesh side %d must be in [1, %d]", sc.Side, MaxSide)
	}
	if sc.Q < 3 {
		return Config{}, fieldErrf("q", "replication arity %d must be ≥ 3 (majority quorum needs ⌊q/2⌋+2 ≤ q)", sc.Q)
	}
	if sc.D < 2 {
		return Config{}, fieldErrf("d", "memory dimension %d must be ≥ 2", sc.D)
	}
	if sc.K < 1 {
		return Config{}, fieldErrf("k", "level count %d must be ≥ 1", sc.K)
	}
	if !knownProgram(sc.Program) {
		return Config{}, fieldErrf("program", "unknown program %q (want one of %s)", sc.Program, strings.Join(Programs, ", "))
	}
	if sc.Size < 1 {
		return Config{}, fieldErrf("size", "problem size %d must be ≥ 1", sc.Size)
	}
	if sc.Backend != BackendBoth && sc.Backend != BackendIdeal && sc.Backend != BackendMesh {
		return Config{}, fieldErrf("backend", "unknown backend %q (want both, ideal or mesh)", sc.Backend)
	}
	if sc.Backend != BackendIdeal && sc.Size > sc.Side*sc.Side {
		return Config{}, fieldErrf("size", "problem size %d exceeds the %d mesh processors (side %d)", sc.Size, sc.Side*sc.Side, sc.Side)
	}
	c := Config{Params: sc.Params(), IdealMemory: sc.IdealMemory, Retry: sc.Retry}
	cc := &c.Core
	var err error
	if cc.Policy, err = parsePolicy(sc.Policy); err != nil {
		return Config{}, &fieldError{Field: "policy", Err: err}
	}
	if cc.Sort, err = parseSortAlgo(sc.Sort); err != nil {
		return Config{}, &fieldError{Field: "sort", Err: err}
	}
	if cc.FaultView, err = faultview.ParseMode(sc.FaultView); err != nil {
		return Config{}, &fieldError{Field: "fault_view", Err: err}
	}
	if cc.Repair, err = core.ParseRepairPolicy(sc.Repair); err != nil {
		return Config{}, &fieldError{Field: "repair", Err: err}
	}
	if sc.Retry < 0 || sc.Retry > MaxRetry {
		return Config{}, fieldErrf("retry", "retry budget %d must be in [0, %d]", sc.Retry, MaxRetry)
	}
	if sc.IdealMemory < 0 || sc.IdealMemory > MaxIdealMemory {
		return Config{}, fieldErrf("ideal_memory", "ideal memory %d words must be in [0, %d]", sc.IdealMemory, MaxIdealMemory)
	}
	if err := sc.checkFit(); err != nil {
		return Config{}, err
	}
	if cc.Faults, err = fault.Parse(sc.Side, sc.Faults); err != nil {
		return Config{}, &fieldError{Field: "faults", Err: err}
	}
	if cc.Schedule, err = fault.ParseSchedule(sc.Side, sc.FaultSchedule); err != nil {
		return Config{}, &fieldError{Field: "fault_schedule", Err: err}
	}
	cc.Torus = sc.Torus
	cc.DisableCulling = sc.DisableCulling
	cc.DirectRouting = sc.DirectRouting
	// The local view's witness tie-breaks reuse the scenario seed, so
	// one Scenario pins the whole timeline.
	cc.FaultViewSeed = sc.Seed
	return c, nil
}

// checkFit rejects a program whose inputs do not fit the memory of a
// backend the scenario runs on: the ideal backend's ideal_memory words
// (the scheme's M when zero), the mesh's M. The size bounds checked
// before it keep every product here in range.
func (sc Scenario) checkFit() error {
	m := schemeVars(sc.Q, sc.D)
	fit := func(words int, memory string) error {
		if sc.Size > words || programWords(sc.Program, sc.Size) > words {
			return fieldErrf("size", "program %s of size %d needs more than the %d words of the %s",
				sc.Program, sc.Size, words, memory)
		}
		return nil
	}
	if sc.Backend != BackendMesh {
		words := sc.IdealMemory
		if words == 0 {
			if m > MaxIdealMemory {
				return fieldErrf("ideal_memory", "0 selects the scheme's M = %d words, above the %d-word ideal memory limit", m, MaxIdealMemory)
			}
			words = m
		}
		if err := fit(words, "ideal memory"); err != nil {
			return err
		}
	}
	if sc.Backend != BackendIdeal {
		return fit(m, "mesh's shared memory")
	}
	return nil
}

// programWords is the address space pram.BuildProgram's program of
// the given size touches (pinned by pram's TestProgramWordsFit). The
// caller bounds size by a memory size first.
func programWords(program string, size int) int {
	switch program {
	case "listrank":
		return 2 * size
	case "compact":
		return 2*size + 1
	case "matvec":
		return size*size + 2*size
	}
	return size
}

// schemeVars is the scheme's memory size M = q^(d−1)·(q^d−1)/(q−1),
// saturated at 2^61: unlike bibd.F, which panics on overflow, it must
// accept any d or q a scenario carries.
func schemeVars(q, d int) int {
	const limit = 1 << 61
	top, sum := 1, 1 // q^i and Σ_{j≤i} q^j
	for i := 1; i < d; i++ {
		if top > limit/q {
			return limit
		}
		top *= q
		sum += top
	}
	if sum > limit/top {
		return limit
	}
	return top * sum
}

func knownProgram(name string) bool {
	for _, p := range Programs {
		if p == name {
			return true
		}
	}
	return false
}

// Canonical returns the byte-deterministic encoding of the scenario:
// the normalized field set as sorted `key=value` lines, strings
// quoted, no maps anywhere. Two runs over the same Scenario — or over
// two Scenarios that normalize equal — produce identical bytes, so
// the encoding doubles as the result-cache key material.
func (sc Scenario) Canonical() []byte {
	sc = sc.Normalized()
	var b strings.Builder
	// Keys in sorted order; keep this list alphabetical when adding
	// fields (TestScenarioCanonicalCoversFields pins coverage).
	put := func(key, val string) {
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
		b.WriteByte('\n')
	}
	put("backend", strconv.Quote(sc.Backend))
	put("d", strconv.Itoa(sc.D))
	put("direct_routing", strconv.FormatBool(sc.DirectRouting))
	put("disable_culling", strconv.FormatBool(sc.DisableCulling))
	put("fault_schedule", strconv.Quote(sc.FaultSchedule))
	put("fault_view", strconv.Quote(sc.FaultView))
	put("faults", strconv.Quote(sc.Faults))
	put("ideal_memory", strconv.Itoa(sc.IdealMemory))
	put("k", strconv.Itoa(sc.K))
	put("policy", strconv.Quote(sc.Policy))
	put("program", strconv.Quote(sc.Program))
	put("q", strconv.Itoa(sc.Q))
	put("repair", strconv.Quote(sc.Repair))
	put("retry", strconv.Itoa(sc.Retry))
	put("seed", strconv.FormatInt(sc.Seed, 10))
	put("side", strconv.Itoa(sc.Side))
	put("size", strconv.Itoa(sc.Size))
	put("sort", strconv.Quote(sc.Sort))
	put("torus", strconv.FormatBool(sc.Torus))
	put("trace", strconv.FormatBool(sc.Trace))
	return []byte(b.String())
}

// Key returns the hex SHA-256 of Canonical — the result-cache key of
// the scenario.
func (sc Scenario) Key() string {
	sum := sha256.Sum256(sc.Canonical())
	return hex.EncodeToString(sum[:])
}

// Params returns the HMOS parameters of the scenario.
func (sc Scenario) Params() hmos.Params {
	return hmos.Params{Side: sc.Side, Q: sc.Q, D: sc.D, K: sc.K}
}

func parsePolicy(s string) (core.AccessPolicy, error) {
	switch s {
	case "", "majority":
		return core.MajorityPolicy, nil
	case "rowa":
		return core.ReadOneWriteAllPolicy, nil
	}
	return 0, fmt.Errorf("unknown access policy %q (want majority or rowa)", s)
}

func parseSortAlgo(s string) (route.SortAlgo, error) {
	switch s {
	case "", "shear":
		return route.ShearSort, nil
	case "rotate":
		return route.RotateSort, nil
	}
	return 0, fmt.Errorf("unknown sort algorithm %q (want shear or rotate)", s)
}
