package gf

import (
	"testing"
	"testing/quick"
)

var testOrders = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 243, 256}

func TestNewRejectsNonPrimePowers(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12, 15, 24, 100, 513, 1000} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d) succeeded; want error", q)
		}
	}
}

func TestPrimePower(t *testing.T) {
	cases := []struct {
		n, p, e int
		ok      bool
	}{
		{2, 2, 1, true}, {3, 3, 1, true}, {4, 2, 2, true}, {8, 2, 3, true},
		{9, 3, 2, true}, {27, 3, 3, true}, {81, 3, 4, true}, {6, 0, 0, false},
		{1, 0, 0, false}, {12, 0, 0, false}, {125, 5, 3, true}, {343, 7, 3, true},
	}
	for _, c := range cases {
		p, e, ok := primePower(c.n)
		if ok != c.ok || (ok && (p != c.p || e != c.e)) {
			t.Errorf("primePower(%d) = (%d,%d,%v), want (%d,%d,%v)", c.n, p, e, ok, c.p, c.e, c.ok)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	for _, q := range testOrders {
		f := MustNew(q)
		if f.Order() != q {
			t.Fatalf("GF(%d): Order=%d", q, f.Order())
		}
		for a := 0; a < q; a++ {
			if f.Add(a, 0) != a {
				t.Fatalf("GF(%d): %d+0 != %d", q, a, a)
			}
			if f.Mul(a, 1) != a {
				t.Fatalf("GF(%d): %d*1 != %d", q, a, a)
			}
			if f.Add(a, f.neg[a]) != 0 {
				t.Fatalf("GF(%d): %d + (-%d) != 0", q, a, a)
			}
			if f.Mul(a, 0) != 0 {
				t.Fatalf("GF(%d): %d*0 != 0", q, a)
			}
		}
	}
}

func TestFieldCommutativityAssociativityDistributivity(t *testing.T) {
	// Exhaustive on the small fields where q^3 is cheap.
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 16, 25, 27} {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				if f.Add(a, b) != f.Add(b, a) {
					t.Fatalf("GF(%d): add not commutative at (%d,%d)", q, a, b)
				}
				if f.Mul(a, b) != f.Mul(b, a) {
					t.Fatalf("GF(%d): mul not commutative at (%d,%d)", q, a, b)
				}
				for c := 0; c < q; c++ {
					if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
						t.Fatalf("GF(%d): add not associative", q)
					}
					if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
						t.Fatalf("GF(%d): mul not associative", q)
					}
					if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
						t.Fatalf("GF(%d): not distributive", q)
					}
				}
			}
		}
	}
}

func TestMulHasNoZeroDivisors(t *testing.T) {
	for _, q := range testOrders {
		f := MustNew(q)
		for a := 1; a < q; a++ {
			for b := 1; b < q; b++ {
				if f.Mul(a, b) == 0 {
					t.Fatalf("GF(%d): zero divisor %d*%d", q, a, b)
				}
			}
		}
	}
}

func TestAddMulAreLatinSquares(t *testing.T) {
	for _, q := range testOrders {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			seen := make([]bool, q)
			for b := 0; b < q; b++ {
				s := f.Add(a, b)
				if seen[s] {
					t.Fatalf("GF(%d): row %d of addition not a permutation", q, a)
				}
				seen[s] = true
			}
		}
		for a := 1; a < q; a++ {
			seen := make([]bool, q)
			for b := 0; b < q; b++ {
				s := f.Mul(a, b)
				if seen[s] {
					t.Fatalf("GF(%d): row %d of multiplication not a permutation", q, a)
				}
				seen[s] = true
			}
		}
	}
}

func TestSubDiv(t *testing.T) {
	for _, q := range []int{3, 4, 9, 27} {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				if f.Add(f.Sub(a, b), b) != a {
					t.Fatalf("GF(%d): (a-b)+b != a at (%d,%d)", q, a, b)
				}
				if b != 0 && f.Mul(f.Mul(a, inverse(f, b)), b) != a {
					t.Fatalf("GF(%d): (a/b)*b != a at (%d,%d)", q, a, b)
				}
			}
		}
	}
}

// inverse returns b with a·b = 1 by search, or 0 for a = 0.
func inverse(f *Field, a int) int {
	for b := 1; b < f.q; b++ {
		if f.Mul(a, b) == 1 {
			return b
		}
	}
	return 0
}

// exp returns a^n for n ≥ 0 (with 0^0 = 1) by repeated squaring.
func exp(f *Field, a, n int) int {
	r := 1
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = f.Mul(r, a)
		}
		a = f.Mul(a, a)
	}
	return r
}

func TestExp(t *testing.T) {
	for _, q := range []int{3, 4, 5, 8, 9, 27} {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			want := 1
			for n := 0; n <= 2*q; n++ {
				if got := exp(f, a, n); got != want {
					t.Fatalf("GF(%d): %d^%d = %d, want %d", q, a, n, got, want)
				}
				want = f.Mul(want, a)
			}
		}
		// Fermat: a^(q-1) = 1 for a != 0.
		for a := 1; a < q; a++ {
			if exp(f, a, q-1) != 1 {
				t.Fatalf("GF(%d): %d^(q-1) != 1", q, a)
			}
		}
	}
}

func TestFrobeniusIsAdditive(t *testing.T) {
	// (a+b)^p = a^p + b^p in characteristic p.
	for _, q := range []int{4, 8, 9, 16, 25, 27, 49} {
		f := MustNew(q)
		p := f.p
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				if exp(f, f.Add(a, b), p) != f.Add(exp(f, a, p), exp(f, b, p)) {
					t.Fatalf("GF(%d): Frobenius not additive at (%d,%d)", q, a, b)
				}
			}
		}
	}
}

func TestInverseUnique(t *testing.T) {
	f := MustNew(27)
	if f.p != 3 || f.e != 3 {
		t.Fatalf("GF(27): p=%d e=%d", f.p, f.e)
	}
	for a := 1; a < 27; a++ {
		count := 0
		for b := 1; b < 27; b++ {
			if f.Mul(a, b) == 1 {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("GF(27): element %d has %d inverses", a, count)
		}
	}
}

func TestIrreduciblePolynomialProperties(t *testing.T) {
	for _, q := range []int{4, 8, 9, 16, 27, 32, 64, 81, 125} {
		f := MustNew(q)
		ir := f.irred
		if len(ir) != f.e+1 {
			t.Fatalf("GF(%d): irreducible has length %d, want %d", q, len(ir), f.e+1)
		}
		if ir[f.e] != 1 {
			t.Fatalf("GF(%d): irreducible not monic", q)
		}
		// No roots in GF(p).
		p := f.p
		for x := 0; x < p; x++ {
			v, xp := 0, 1
			for _, c := range ir {
				v = (v + c*xp) % p
				xp = (xp * x) % p
			}
			if v == 0 {
				t.Fatalf("GF(%d): irreducible has root %d in GF(%d)", q, x, p)
			}
		}
	}
}

func TestQuickFieldIdentities(t *testing.T) {
	f := MustNew(81)
	q := f.Order()
	// Property: (a·b)·c == a·(b·c) and a·(b+c) == a·b + a·c for random triples.
	prop := func(ra, rb, rc uint16) bool {
		a, b, c := int(ra)%q, int(rb)%q, int(rc)%q
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			return false
		}
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPolyHelpers(t *testing.T) {
	// (x+1)(x+2) = x² + 3x + 2 = x² + 2 over GF(3) reduced mod x²+1 → 2x²... sanity:
	p := 3
	a := []int{1, 1} // 1 + x
	b := []int{2, 1} // 2 + x
	m := []int{1, 0, 1}
	got := polyMulMod(a, b, m, p)
	// (1+x)(2+x) = 2 + 3x + x² = 2 + x² ; mod (x²+1): 2 + (x²+1) - 1 = ... x² ≡ -1 ≡ 2, so 2+2 = 4 ≡ 1.
	if polyToInt(got, p) != 1 {
		t.Fatalf("polyMulMod = %v (int %d), want 1", got, polyToInt(got, p))
	}
	if polyDeg([]int{0, 0, 0}) != -1 {
		t.Fatal("polyDeg of zero poly should be -1")
	}
	if v := polyToInt(intToPoly(17, 3, 4), 3); v != 17 {
		t.Fatalf("roundtrip intToPoly/polyToInt = %d", v)
	}
}

func BenchmarkMulGF27(b *testing.B) {
	f := MustNew(27)
	s := 0
	for i := 0; i < b.N; i++ {
		s += f.Mul(i%27, (i+7)%27)
	}
	_ = s
}

func BenchmarkNewGF256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustNew(256)
	}
}
