package pram

import (
	"math/rand"
	"sort"
	"testing"
)

func TestReduceIdealAndMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := make([]Word, 50)
	var want Word
	for i := range in {
		in[i] = Word(rng.Intn(1000) - 500)
		want += in[i]
	}
	id := newIdeal(64)
	if _, err := Run(&Reduce{In: in}, id); err != nil {
		t.Fatal(err)
	}
	if id.mem[0] != want {
		t.Fatalf("ideal reduce = %d, want %d", id.mem[0], want)
	}
	mb := testMesh(t)
	if _, err := Run(&Reduce{In: in}, mb); err != nil {
		t.Fatal(err)
	}
	res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: 0}})
	if res[0] != want {
		t.Fatalf("mesh reduce = %d, want %d", res[0], want)
	}
}

func TestReduceSizes(t *testing.T) {
	// Powers of two and odd sizes, including degenerate n=1.
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		in := make([]Word, n)
		var want Word
		for i := range in {
			in[i] = Word(i*i - 3)
			want += in[i]
		}
		id := newIdeal(64)
		if _, err := Run(&Reduce{In: in}, id); err != nil {
			t.Fatal(err)
		}
		if id.mem[0] != want {
			t.Fatalf("n=%d: reduce = %d, want %d", n, id.mem[0], want)
		}
	}
}

func TestOddEvenSortIdealAndMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := make([]Word, 40)
	for i := range in {
		in[i] = Word(rng.Intn(100))
	}
	want := append([]Word(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	id := newIdeal(64)
	if _, err := Run(&OddEvenSort{In: in}, id); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if id.mem[i] != w {
			t.Fatalf("ideal sort[%d] = %d, want %d", i, id.mem[i], w)
		}
	}

	mb := testMesh(t)
	if _, err := Run(&OddEvenSort{In: in}, mb); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: i}})
		if res[0] != w {
			t.Fatalf("mesh sort[%d] = %d, want %d", i, res[0], w)
		}
	}
}

func TestOddEvenSortAdversarialInputs(t *testing.T) {
	cases := [][]Word{
		{5, 4, 3, 2, 1},            // reversed
		{1, 1, 1, 1},               // constant
		{2, 1},                     // pair
		{7},                        // singleton
		{3, -1, 3, -1, 0, 0, 9, 2}, // duplicates and negatives
	}
	for ci, in := range cases {
		want := append([]Word(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		id := newIdeal(32)
		if _, err := Run(&OddEvenSort{In: append([]Word(nil), in...)}, id); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if id.mem[i] != w {
				t.Fatalf("case %d: sort[%d] = %d, want %d", ci, i, id.mem[i], w)
			}
		}
	}
}

func TestCompactIdealAndMesh(t *testing.T) {
	in := []Word{0, 5, 0, 0, 7, 1, 0, 9, 0, 2}
	wantOut := []Word{5, 7, 1, 9, 2}
	n := len(in)
	prog := func() *Compact {
		return &Compact{In: in, FlagBase: 0, OutBase: n, CountAddr: 2 * n}
	}
	id := newIdeal(32)
	if _, err := Run(prog(), id); err != nil {
		t.Fatal(err)
	}
	if id.mem[2*n] != Word(len(wantOut)) {
		t.Fatalf("ideal count = %d, want %d", id.mem[2*n], len(wantOut))
	}
	for i, w := range wantOut {
		if id.mem[n+i] != w {
			t.Fatalf("ideal out[%d] = %d, want %d", i, id.mem[n+i], w)
		}
	}

	mb := testMesh(t)
	if _, err := Run(prog(), mb); err != nil {
		t.Fatal(err)
	}
	res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: 2 * n}})
	if res[0] != Word(len(wantOut)) {
		t.Fatalf("mesh count = %d", res[0])
	}
	for i, w := range wantOut {
		res, _ := mb.ExecStep([]Op{{Kind: Read, Addr: n + i}})
		if res[0] != w {
			t.Fatalf("mesh out[%d] = %d, want %d", i, res[0], w)
		}
	}
}

func TestCompactEdgeCases(t *testing.T) {
	// All zero: count 0. Trailing nonzero exercises the deferred count
	// write. All nonzero: identity.
	cases := []struct {
		in   []Word
		want []Word
	}{
		{[]Word{0, 0, 0}, nil},
		{[]Word{0, 0, 4}, []Word{4}},
		{[]Word{1, 2, 3}, []Word{1, 2, 3}},
	}
	for ci, c := range cases {
		n := len(c.in)
		id := newIdeal(32)
		if _, err := Run(&Compact{In: c.in, FlagBase: 0, OutBase: n, CountAddr: 2 * n}, id); err != nil {
			t.Fatal(err)
		}
		if id.mem[2*n] != Word(len(c.want)) {
			t.Fatalf("case %d: count = %d, want %d", ci, id.mem[2*n], len(c.want))
		}
		for i, w := range c.want {
			if id.mem[n+i] != w {
				t.Fatalf("case %d: out[%d] = %d, want %d", ci, i, id.mem[n+i], w)
			}
		}
	}
}
