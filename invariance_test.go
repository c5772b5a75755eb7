package meshpram_test

import (
	"reflect"
	"testing"

	"meshpram/internal/baseline"
	"meshpram/internal/core"
	"meshpram/internal/fault"
	"meshpram/internal/hmos"
	"meshpram/internal/mpc"
	"meshpram/internal/workload"
)

// Cost-model invariance fixtures: these exact numbers were captured
// from the pre-ledger accounting (single step counter, hand-threaded
// StepStats) on fixed seeds. The ledger refactor moves where costs are
// recorded; it must not change a single one of them. Every scenario
// additionally cross-checks the three accounting surfaces against each
// other: StepStats.Total(), the machine step counter, and the ledger
// tree's charged Total.

type coreStepFixture struct {
	packets       int // 0 = don't check
	culling       int64
	sort          int64
	rank          int64
	forward       int64
	access        int64
	ret           int64
	total         int64
	stageForward  []int64
	delta         []int
	pageLoadMax   []int // nil = don't check
	pageLoadBound []int // nil = don't check
	resSum        int64
	meshSteps     int64 // cumulative after the step
}

func runCoreFixture(t *testing.T, name string, cfg core.Config, want []coreStepFixture) {
	t.Helper()
	sim := core.MustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, cfg)
	n := sim.Mesh().N
	for step, w := range want {
		vars := workload.RandomDistinct(sim.Scheme().Vars(), n, 42+int64(step))
		res, st := sim.Step(vars.Mixed(1000))
		var sum core.Word
		for _, v := range res {
			sum += v*31 + 7
		}
		if w.packets != 0 && st.Packets != w.packets {
			t.Errorf("%s step%d: Packets = %d, want %d", name, step, st.Packets, w.packets)
		}
		if st.Culling != w.culling || st.Sort != w.sort || st.Rank != w.rank ||
			st.Forward != w.forward || st.Access != w.access || st.Return != w.ret {
			t.Errorf("%s step%d: phases C=%d S=%d R=%d F=%d A=%d B=%d, want C=%d S=%d R=%d F=%d A=%d B=%d",
				name, step, st.Culling, st.Sort, st.Rank, st.Forward, st.Access, st.Return,
				w.culling, w.sort, w.rank, w.forward, w.access, w.ret)
		}
		if st.Total() != w.total {
			t.Errorf("%s step%d: Total = %d, want %d", name, step, st.Total(), w.total)
		}
		if !reflect.DeepEqual(st.StageForward, w.stageForward) {
			t.Errorf("%s step%d: StageForward = %v, want %v", name, step, st.StageForward, w.stageForward)
		}
		if !reflect.DeepEqual(st.Delta, w.delta) {
			t.Errorf("%s step%d: Delta = %v, want %v", name, step, st.Delta, w.delta)
		}
		if w.pageLoadMax != nil && !reflect.DeepEqual(st.PageLoadMax, w.pageLoadMax) {
			t.Errorf("%s step%d: PageLoadMax = %v, want %v", name, step, st.PageLoadMax, w.pageLoadMax)
		}
		if w.pageLoadBound != nil && !reflect.DeepEqual(st.PageLoadBound, w.pageLoadBound) {
			t.Errorf("%s step%d: PageLoadBound = %v, want %v", name, step, st.PageLoadBound, w.pageLoadBound)
		}
		if sum != w.resSum {
			t.Errorf("%s step%d: result sum = %d, want %d", name, step, sum, w.resSum)
		}
		if got := sim.Mesh().Steps(); got != w.meshSteps {
			t.Errorf("%s step%d: mesh steps = %d, want %d", name, step, got, w.meshSteps)
		}
		// The three accounting surfaces must agree: the stats view, the
		// ledger tree, and (cumulatively, checked above) the counter.
		root := sim.Ledger().Last()
		if root == nil {
			t.Fatalf("%s step%d: no ledger tree", name, step)
		}
		if root.Total() != st.Total() {
			t.Errorf("%s step%d: ledger Total = %d, StepStats Total = %d", name, step, root.Total(), st.Total())
		}
		view := core.StatsFromSpan(root, sim.Scheme().K)
		if !reflect.DeepEqual(view, st) {
			t.Errorf("%s step%d: StatsFromSpan(Last()) = %+v, step stats = %+v", name, step, view, st)
		}
	}
}

func TestInvarianceCoreStaged(t *testing.T) {
	runCoreFixture(t, "staged", core.Config{}, []coreStepFixture{
		{packets: 324, culling: 1864, sort: 423, rank: 38, forward: 29, access: 16, ret: 29,
			total: 2399, stageForward: []int64{0, 0, 38, 452}, delta: []int{12, 12, 9, 4},
			pageLoadMax: []int{0, 12, 25}, pageLoadBound: []int{0, 324, 972},
			resSum: 1322407, meshSteps: 2399},
		{culling: 1864, sort: 420, rank: 38, forward: 30, access: 15, ret: 29,
			total: 2396, stageForward: []int64{0, 0, 36, 452}, delta: []int{11, 11, 8, 4},
			pageLoadMax: []int{0, 11, 23},
			resSum:      2029765, meshSteps: 4795},
	})
}

// TestFaultFreeInvariance pins the fault-rate-0 guarantee: a non-nil
// but empty fault map routes every decision through the fault-aware
// code paths (availability masks, detour-capable router, degradation
// verdict) yet must reproduce the healthy fixtures bit for bit — same
// phase charges, same results, same ledger totals — and report a
// non-degraded step.
func TestFaultFreeInvariance(t *testing.T) {
	runCoreFixture(t, "staged-emptyfaults", core.Config{Faults: fault.NewMap(9)}, []coreStepFixture{
		{packets: 324, culling: 1864, sort: 423, rank: 38, forward: 29, access: 16, ret: 29,
			total: 2399, stageForward: []int64{0, 0, 38, 452}, delta: []int{12, 12, 9, 4},
			pageLoadMax: []int{0, 12, 25}, pageLoadBound: []int{0, 324, 972},
			resSum: 1322407, meshSteps: 2399},
		{culling: 1864, sort: 420, rank: 38, forward: 30, access: 15, ret: 29,
			total: 2396, stageForward: []int64{0, 0, 36, 452}, delta: []int{11, 11, 8, 4},
			pageLoadMax: []int{0, 11, 23},
			resSum:      2029765, meshSteps: 4795},
	})

	sim := core.MustNew(hmos.Params{Side: 9, Q: 3, D: 3, K: 2}, core.Config{Faults: fault.NewMap(9)})
	vars := workload.RandomDistinct(sim.Scheme().Vars(), sim.Mesh().N, 42)
	if _, _, err := sim.StepChecked(vars.Mixed(1000)); err != nil {
		t.Fatal(err)
	}
	rep := sim.LastReport()
	if rep == nil {
		t.Fatal("faulty configuration produced no degradation report")
	}
	if rep.Degraded() {
		t.Errorf("empty fault map degraded the step: %s", rep)
	}
}

// TestScheduleStaticEquivalence pins the two degenerate cases of the
// dynamic-fault layer. (a) An empty (even non-nil) schedule keeps the
// fault-free fast path: the healthy fixtures must reproduce bit for
// bit. (b) A schedule whose events all fire at step 0 is the same
// world as installing those marks as a static map: results, stats,
// reports and mesh steps must be indistinguishable over several steps.
func TestScheduleStaticEquivalence(t *testing.T) {
	runCoreFixture(t, "staged-emptyschedule", core.Config{Schedule: fault.NewSchedule(9)}, []coreStepFixture{
		{packets: 324, culling: 1864, sort: 423, rank: 38, forward: 29, access: 16, ret: 29,
			total: 2399, stageForward: []int64{0, 0, 38, 452}, delta: []int{12, 12, 9, 4},
			pageLoadMax: []int{0, 12, 25}, pageLoadBound: []int{0, 324, 972},
			resSum: 1322407, meshSteps: 2399},
		{culling: 1864, sort: 420, rank: 38, forward: 30, access: 15, ret: 29,
			total: 2396, stageForward: []int64{0, 0, 36, 452}, delta: []int{11, 11, 8, 4},
			pageLoadMax: []int{0, 11, 23},
			resSum:      2029765, meshSteps: 4795},
	})

	p := hmos.Params{Side: 9, Q: 3, D: 3, K: 2}
	f, err := fault.Parse(9, "module:40;link:5-6")
	if err != nil {
		t.Fatal(err)
	}
	static := core.MustNew(p, core.Config{Faults: f})
	sched := fault.NewSchedule(9).
		At(0, fault.EvKillModule, 40).
		At(0, fault.EvKillLink, 5, 6)
	dynamic := core.MustNew(p, core.Config{Schedule: sched})

	for step := 0; step < 3; step++ {
		vars := workload.RandomDistinct(static.Scheme().Vars(), static.Mesh().N, 42+int64(step))
		ops := vars.Mixed(1000)
		r1, s1, err1 := static.StepChecked(ops)
		r2, s2, err2 := dynamic.StepChecked(ops)
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: errors %v / %v", step, err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("step %d: results diverge", step)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("step %d: stats diverge: static %+v, dynamic %+v", step, s1, s2)
		}
		if !reflect.DeepEqual(static.LastReport(), dynamic.LastReport()) {
			t.Errorf("step %d: reports diverge: static %v, dynamic %v",
				step, static.LastReport(), dynamic.LastReport())
		}
	}
	if a, b := static.Mesh().Steps(), dynamic.Mesh().Steps(); a != b {
		t.Errorf("mesh steps diverge: static %d, dynamic %d", a, b)
	}
}

func TestInvarianceCoreDirect(t *testing.T) {
	runCoreFixture(t, "direct", core.Config{DirectRouting: true}, []coreStepFixture{
		{culling: 1864, sort: 396, rank: 0, forward: 19, access: 16, ret: 26,
			total: 2321, stageForward: []int64{0, 415, 0, 0}, delta: []int{12, 0, 0, 4},
			resSum: 1322407, meshSteps: 2321},
		{culling: 1864, sort: 396, rank: 0, forward: 21, access: 15, ret: 23,
			total: 2319, stageForward: []int64{0, 417, 0, 0}, delta: []int{11, 0, 0, 4},
			meshSteps: 4640, resSum: 2029765},
	})
}

func TestInvarianceCoreNoCulling(t *testing.T) {
	runCoreFixture(t, "noculling", core.Config{DisableCulling: true}, []coreStepFixture{
		{culling: 0, sort: 423, rank: 38, forward: 29, access: 16, ret: 29,
			total: 535, stageForward: []int64{0, 0, 38, 452}, delta: []int{12, 12, 9, 4},
			resSum: 1322407, meshSteps: 535},
		{culling: 0, sort: 420, rank: 38, forward: 30, access: 15, ret: 29,
			total: 532, stageForward: []int64{0, 0, 36, 452}, delta: []int{11, 11, 8, 4},
			resSum: 2029765, meshSteps: 1067},
	})
}

func TestInvarianceCoreReadOneWriteAll(t *testing.T) {
	runCoreFixture(t, "rowa", core.Config{Policy: core.ReadOneWriteAllPolicy}, []coreStepFixture{
		{packets: 409, culling: 0, sort: 915, rank: 38, forward: 42, access: 20, ret: 30,
			total: 1045, stageForward: []int64{0, 0, 34, 961}, delta: []int{11, 11, 8, 9},
			pageLoadBound: []int{0, 0, 0},
			resSum:        1322407, meshSteps: 1045},
		{culling: 0, sort: 912, rank: 38, forward: 31, access: 18, ret: 26,
			total: 1025, stageForward: []int64{0, 0, 30, 951}, delta: []int{9, 9, 7, 9},
			resSum: 2029765, meshSteps: 2070},
	})
}

func baselineOps() []baseline.Op {
	vars := workload.RandomDistinct(500, 81, 42)
	ops := make([]baseline.Op, len(vars))
	for i, v := range vars {
		ops[i] = baseline.Op{Origin: i % 81, Var: v, IsWrite: i%2 == 0, Value: int64(i)}
	}
	return ops
}

func TestInvarianceBaselineNoReplication(t *testing.T) {
	nr, err := baseline.NewNoReplication(9, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, c := nr.Step(baselineOps())
	var sum int64
	for _, v := range res {
		sum += v*31 + 7
	}
	if c.Sort != 99 || c.Forward != 8 || c.Access != 3 || c.Return != 12 || c.Total() != 122 {
		t.Errorf("cost %+v (total %d), want Sort=99 Forward=8 Access=3 Return=12 Total=122", c, c.Total())
	}
	if sum != 51407 {
		t.Errorf("result sum = %d, want 51407", sum)
	}
	if got := nr.M.Steps(); got != 122 {
		t.Errorf("mesh steps = %d, want 122", got)
	}
	if root := nr.M.Ledger().Last(); root == nil || root.Total() != 122 {
		t.Errorf("ledger Total = %d, want 122", root.Total())
	}
}

func TestInvarianceBaselineRandomMOS(t *testing.T) {
	rm, err := baseline.NewRandomMOS(9, 500, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, c := rm.Step(baselineOps())
	var sum int64
	for _, v := range res {
		sum += v*31 + 7
	}
	if c.Sort != 198 || c.Forward != 10 || c.Access != 7 || c.Return != 15 || c.Total() != 230 {
		t.Errorf("cost %+v (total %d), want Sort=198 Forward=10 Access=7 Return=15 Total=230", c, c.Total())
	}
	// The same answers as NoReplication: an unwritten variable reads 0.
	if sum != 51407 {
		t.Errorf("result sum = %d, want 51407", sum)
	}
	if got := rm.M.Steps(); got != 230 {
		t.Errorf("mesh steps = %d, want 230", got)
	}
	if root := rm.M.Ledger().Last(); root == nil || root.Total() != 230 {
		t.Errorf("ledger Total = %d, want 230", root.Total())
	}
}

func TestInvarianceMPC(t *testing.T) {
	mm, err := mpc.New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	mv := workload.RandomDistinct(mm.Vars(), mm.N, 42)
	mops := make([]mpc.Op, len(mv))
	for i, v := range mv {
		mops[i] = mpc.Op{Origin: i, Var: v, IsWrite: i%2 == 0, Value: int64(i)}
	}
	res, st := mm.Step(mops)
	var sum int64
	for _, v := range res {
		sum += v*31 + 7
	}
	if st.Requests != 162 || st.MaxLoad != 4 || st.SqrtNBound != 9 || st.Steps != 6 {
		t.Errorf("stats %+v, want Requests=162 MaxLoad=4 SqrtNBound=9 Steps=6", st)
	}
	if sum != 51407 {
		t.Errorf("result sum = %d, want 51407", sum)
	}
	if root := mm.Ledger().Last(); root == nil || root.Total() != st.Steps {
		t.Errorf("ledger Total = %d, want %d", root.Total(), st.Steps)
	}
}
