// Package gf implements arithmetic in finite fields GF(p^e) for small
// prime powers. It is the algebraic substrate for the BIBD construction
// of Pietracaprina–Preparata used by the hierarchical memory
// organization scheme: every HMOS level graph is defined by linear
// expressions a_j + x·b_j evaluated in GF(q).
//
// Field elements are represented as integers in [0, q). For prime q the
// representation is the residue itself; for q = p^e the base-p digits of
// the integer are the coefficients of a polynomial over GF(p), reduced
// modulo a monic irreducible polynomial of degree e that the package
// finds by exhaustive search. Add and Mul are table-driven, so all
// operations are O(1) after construction; a field with q ≤ 512 costs at
// most q² table entries.
package gf

import (
	"fmt"
)

// Field is a finite field GF(q) with q = p^e elements.
// The zero value is not usable; construct with New.
type Field struct {
	q, p, e int
	irred   []int // monic irreducible polynomial, coefficients irred[0..e], irred[e]=1
	add     []int // add[a*q+b] = a+b
	mul     []int // mul[a*q+b] = a*b
	neg     []int // neg[a] = -a
}

// New constructs GF(q). It returns an error unless q is a prime power
// with 2 ≤ q ≤ 512.
func New(q int) (*Field, error) {
	if q < 2 || q > 512 {
		return nil, fmt.Errorf("gf: order %d out of supported range [2,512]", q)
	}
	p, e, ok := primePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: order %d is not a prime power", q)
	}
	f := &Field{q: q, p: p, e: e}
	if e == 1 {
		f.irred = []int{0, 1} // x (unused for prime fields)
	} else {
		f.irred = findIrreducible(p, e)
		if f.irred == nil {
			return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over GF(%d)", e, p)
		}
	}
	f.buildTables()
	return f, nil
}

// MustNew is New but panics on error; for use with constant parameters.
func MustNew(q int) *Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// Order returns q, the number of elements.
func (f *Field) Order() int { return f.q }

// Add returns a+b in the field.
func (f *Field) Add(a, b int) int { return f.add[a*f.q+b] }

// Sub returns a-b in the field.
func (f *Field) Sub(a, b int) int { return f.add[a*f.q+f.neg[b]] }

// Mul returns a·b in the field.
func (f *Field) Mul(a, b int) int { return f.mul[a*f.q+b] }

// buildTables materializes the add/mul/neg tables.
func (f *Field) buildTables() {
	q, p, e := f.q, f.p, f.e
	f.add = make([]int, q*q)
	f.mul = make([]int, q*q)
	f.neg = make([]int, q)
	if e == 1 {
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				f.add[a*q+b] = (a + b) % q
				f.mul[a*q+b] = (a * b) % q
			}
			f.neg[a] = (q - a) % q
		}
	} else {
		for a := 0; a < q; a++ {
			pa := intToPoly(a, p, e)
			for b := 0; b < q; b++ {
				pb := intToPoly(b, p, e)
				f.add[a*q+b] = polyToInt(polyAdd(pa, pb, p), p)
				f.mul[a*q+b] = polyToInt(polyMulMod(pa, pb, f.irred, p), p)
			}
			f.neg[a] = polyToInt(polyNeg(pa, p), p)
		}
	}
}

// primePower reports whether n = p^e for a prime p, returning p and e.
func primePower(n int) (p, e int, ok bool) {
	if n < 2 {
		return 0, 0, false
	}
	m := n
	for d := 2; d*d <= m; d++ {
		if m%d == 0 {
			p = d
			for m%d == 0 {
				m /= d
				e++
			}
			if m != 1 {
				return 0, 0, false
			}
			return p, e, true
		}
	}
	return n, 1, true // n itself prime
}

// --- polynomial helpers over GF(p), coefficient slices little-endian ---

func intToPoly(v, p, e int) []int {
	c := make([]int, e)
	for i := 0; i < e; i++ {
		c[i] = v % p
		v /= p
	}
	return c
}

func polyToInt(c []int, p int) int {
	v := 0
	for i := len(c) - 1; i >= 0; i-- {
		v = v*p + c[i]
	}
	return v
}

func polyAdd(a, b []int, p int) []int {
	n := max(len(a), len(b))
	out := make([]int, n)
	for i := 0; i < n; i++ {
		var x, y int
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		out[i] = (x + y) % p
	}
	return out
}

func polyNeg(a []int, p int) []int {
	out := make([]int, len(a))
	for i, c := range a {
		out[i] = (p - c) % p
	}
	return out
}

func polyDeg(a []int) int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != 0 {
			return i
		}
	}
	return -1
}

// polyMulMod multiplies a·b and reduces modulo the monic polynomial m.
func polyMulMod(a, b, m []int, p int) []int {
	prod := make([]int, len(a)+len(b)-1)
	for i, x := range a {
		if x == 0 {
			continue
		}
		for j, y := range b {
			prod[i+j] = (prod[i+j] + x*y) % p
		}
	}
	return polyMod(prod, m, p)
}

// polyMod reduces a modulo the monic polynomial m over GF(p).
func polyMod(a, m []int, p int) []int {
	dm := polyDeg(m)
	out := make([]int, len(a))
	copy(out, a)
	for d := polyDeg(out); d >= dm; d = polyDeg(out) {
		// out -= out[d] * x^(d-dm) * m
		c := out[d]
		for i := 0; i <= dm; i++ {
			out[d-dm+i] = ((out[d-dm+i]-c*m[i])%p + p*p) % p
		}
	}
	if len(out) > dm {
		out = out[:dm]
	}
	return out
}

// findIrreducible returns a monic irreducible polynomial of degree e
// over GF(p) by exhaustive search, or nil if none exists (cannot happen
// mathematically, but the caller checks).
func findIrreducible(p, e int) []int {
	total := 1
	for i := 0; i < e; i++ {
		total *= p
	}
	// Candidate = x^e + (lower-degree part encoded by v).
	for v := 0; v < total; v++ {
		cand := intToPoly(v, p, e)
		cand = append(cand, 1) // monic of degree e
		if polyIrreducible(cand, p) {
			return cand
		}
	}
	return nil
}

// polyIrreducible tests irreducibility by trial division by every monic
// polynomial of degree 1..e/2. Fine for the tiny fields this package
// supports.
func polyIrreducible(f []int, p int) bool {
	e := polyDeg(f)
	if e <= 0 {
		return false
	}
	if e == 1 {
		return true
	}
	for d := 1; d <= e/2; d++ {
		total := 1
		for i := 0; i < d; i++ {
			total *= p
		}
		for v := 0; v < total; v++ {
			g := intToPoly(v, p, d)
			g = append(g, 1) // monic degree d
			if polyDeg(polyModPoly(f, g, p)) < 0 {
				return false
			}
		}
	}
	return true
}

// polyModPoly returns f mod g for monic g (general-degree variant of
// polyMod, kept separate for clarity in the irreducibility test).
func polyModPoly(f, g []int, p int) []int {
	return polyMod(append([]int(nil), f...), g, p)
}
