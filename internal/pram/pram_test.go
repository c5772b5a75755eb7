package pram

import (
	"math/rand"
	"testing"

	"meshpram/internal/core"
	"meshpram/internal/hmos"
)

var meshParams = hmos.Params{Side: 9, Q: 3, D: 3, K: 2} // n=81, M=117

// newMesh builds a mesh backend straight from HMOS parameters and a
// core configuration; code outside the tests goes through NewBackend.
func newMesh(p hmos.Params, cfg core.Config) (*Mesh, error) {
	sim, err := core.New(p, cfg)
	if err != nil {
		return nil, err
	}
	return &Mesh{Sim: sim, m: sim.Mesh()}, nil
}

func testMesh(t testing.TB) *Mesh {
	t.Helper()
	mb, err := newMesh(meshParams, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return mb
}

func TestIdealSemantics(t *testing.T) {
	id := newIdeal(10)
	// Write then read in separate steps.
	if _, err := id.ExecStep([]Op{{Kind: Write, Addr: 3, Value: 7}}); err != nil {
		t.Fatal(err)
	}
	res, err := id.ExecStep([]Op{{Kind: Read, Addr: 3}})
	if err != nil || res[0] != 7 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	// Read sees pre-step value when the same step writes.
	res, _ = id.ExecStep([]Op{{Kind: Read, Addr: 3}, {Kind: Write, Addr: 3, Value: 9}})
	if res[0] != 7 {
		t.Fatalf("read saw post-step value: %d", res[0])
	}
	res, _ = id.ExecStep([]Op{{Kind: Read, Addr: 3}})
	if res[0] != 9 {
		t.Fatalf("write lost: %d", res[0])
	}
	if id.Steps() != 4 {
		t.Fatalf("ideal steps = %d", id.Steps())
	}
}

// TestIdealCombinePolicies pins the one concurrent-write rule: the
// lowest pid's value wins (Arbitrary CRCW).
func TestIdealCombinePolicies(t *testing.T) {
	id := newIdeal(4)
	id.ExecStep([]Op{
		{Kind: Write, Addr: 0, Value: 5},
		{Kind: Write, Addr: 0, Value: 9},
		{Kind: Write, Addr: 0, Value: 7},
	})
	if res, _ := id.ExecStep([]Op{{Kind: Read, Addr: 0}}); res[0] != 5 {
		t.Errorf("got %d want the lowest pid's 5", res[0])
	}
}

func TestIdealAddressValidation(t *testing.T) {
	id := newIdeal(4)
	if _, err := id.ExecStep([]Op{{Kind: Read, Addr: 4}}); err == nil {
		t.Error("read out of range accepted")
	}
	if _, err := id.ExecStep([]Op{{Kind: Write, Addr: -1}}); err == nil {
		t.Error("write out of range accepted")
	}
}

func TestMeshBackendBasic(t *testing.T) {
	mb := testMesh(t)
	if _, err := mb.ExecStep([]Op{{Kind: Write, Addr: 5, Value: 123}}); err != nil {
		t.Fatal(err)
	}
	res, err := mb.ExecStep([]Op{{Kind: Read, Addr: 5}})
	if err != nil || res[0] != 123 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if mb.Steps() <= 0 {
		t.Fatal("mesh backend charged nothing")
	}
}

func TestMeshConcurrentReads(t *testing.T) {
	mb := testMesh(t)
	mb.ExecStep([]Op{{Kind: Write, Addr: 7, Value: 55}})
	ops := make([]Op, 20)
	for i := range ops {
		ops[i] = Op{Kind: Read, Addr: 7}
	}
	res, err := mb.ExecStep(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != 55 {
			t.Fatalf("reader %d got %d", i, v)
		}
	}
}

func TestMeshConcurrentWritesCombine(t *testing.T) {
	mb := testMesh(t)
	mb.ExecStep([]Op{
		{Kind: Write, Addr: 2, Value: 10},
		{Kind: Write, Addr: 2, Value: 20},
		{Kind: Write, Addr: 2, Value: 30},
	})
	res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: 2}})
	if res[0] != 10 {
		t.Fatalf("combined write = %d, want the lowest pid's 10", res[0])
	}
}

func TestMeshReadWriteOverlapSplits(t *testing.T) {
	mb := testMesh(t)
	mb.ExecStep([]Op{{Kind: Write, Addr: 9, Value: 1}})
	// Same step reads and writes addr 9: read must see the old value.
	res, err := mb.ExecStep([]Op{
		{Kind: Read, Addr: 9},
		{Kind: Write, Addr: 9, Value: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1 {
		t.Fatalf("overlapping read saw %d, want pre-step 1", res[0])
	}
	res, _ = mb.ExecStep([]Op{{Kind: Read, Addr: 9}})
	if res[0] != 2 {
		t.Fatalf("write lost: %d", res[0])
	}
}

func refPrefix(in []Word) []Word {
	out := make([]Word, len(in))
	var run Word
	for i, v := range in {
		run += v
		out[i] = run
	}
	return out
}

func TestPrefixSumIdealAndMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]Word, 64)
	for i := range in {
		in[i] = Word(rng.Intn(100))
	}
	want := refPrefix(in)

	id := newIdeal(128)
	if _, err := Run(&PrefixSum{In: in}, id); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if id.mem[i] != w {
			t.Fatalf("ideal prefix[%d]=%d want %d", i, id.mem[i], w)
		}
	}

	mb := testMesh(t)
	if _, err := Run(&PrefixSum{In: in}, mb); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: i}})
		if res[0] != w {
			t.Fatalf("mesh prefix[%d]=%d want %d", i, res[0], w)
		}
	}
	if mb.Steps() <= id.Steps() {
		t.Fatalf("mesh (%d) not slower than ideal (%d)?", mb.Steps(), id.Steps())
	}
}

func refListRank(next []int) []Word {
	out := make([]Word, len(next))
	for i := range next {
		d, j := 0, i
		for next[j] != j {
			j = next[j]
			d++
		}
		out[i] = Word(d)
	}
	return out
}

func TestListRankIdealAndMesh(t *testing.T) {
	// A random list: permutation chain ending at a self-loop.
	n := 40
	rng := rand.New(rand.NewSource(2))
	order := rng.Perm(n)
	next := make([]int, n)
	for i := 0; i+1 < n; i++ {
		next[order[i]] = order[i+1]
	}
	next[order[n-1]] = order[n-1]
	want := refListRank(next)

	id := newIdeal(2 * n)
	if _, err := Run(&ListRank{Succ: next, NextBase: 0, RankBase: n}, id); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if id.mem[n+i] != w {
			t.Fatalf("ideal rank[%d]=%d want %d", i, id.mem[n+i], w)
		}
	}

	mb := testMesh(t)
	if _, err := Run(&ListRank{Succ: next, NextBase: 0, RankBase: n}, mb); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: n + i}})
		if res[0] != w {
			t.Fatalf("mesh rank[%d]=%d want %d", i, res[0], w)
		}
	}
}

func TestMatVecIdealAndMesh(t *testing.T) {
	r, c := 8, 8
	rng := rand.New(rand.NewSource(3))
	A := make([][]Word, r)
	for i := range A {
		A[i] = make([]Word, c)
		for j := range A[i] {
			A[i][j] = Word(rng.Intn(10))
		}
	}
	x := make([]Word, c)
	for j := range x {
		x[j] = Word(rng.Intn(10))
	}
	want := make([]Word, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			want[i] += A[i][j] * x[j]
		}
	}
	prog := &MatVec{A: A, X: x, ABase: 0, XBase: r * c, YBase: r*c + c}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}

	id := newIdeal(r*c + c + r)
	if _, err := Run(prog, id); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if id.mem[r*c+c+i] != w {
			t.Fatalf("ideal y[%d]=%d want %d", i, id.mem[r*c+c+i], w)
		}
	}

	mb := testMesh(t)
	prog2 := &MatVec{A: A, X: x, ABase: 0, XBase: r * c, YBase: r*c + c}
	if _, err := Run(prog2, mb); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: r*c + c + i}})
		if res[0] != w {
			t.Fatalf("mesh y[%d]=%d want %d", i, res[0], w)
		}
	}
}

func TestMatVecValidate(t *testing.T) {
	bad := &MatVec{A: [][]Word{{1, 2}, {3}}, X: []Word{1, 1}}
	if bad.Validate() == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestRunOpsLengthMismatch(t *testing.T) {
	id := newIdeal(4)
	bad := &badProgram{}
	if _, err := Run(bad, id); err == nil {
		t.Fatal("mismatched ops length accepted")
	}
}

type badProgram struct{}

func (b *badProgram) Procs() int { return 3 }
func (b *badProgram) Next(t int, prev []Word) ([]Op, bool) {
	return make([]Op, 1), false
}

func BenchmarkPrefixSumMesh(b *testing.B) {
	in := make([]Word, 64)
	for i := range in {
		in[i] = Word(i)
	}
	for i := 0; i < b.N; i++ {
		mb, _ := newMesh(meshParams, core.Config{})
		Run(&PrefixSum{In: in}, mb)
	}
}
