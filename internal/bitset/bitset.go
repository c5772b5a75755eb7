// Package bitset provides a dense fixed-capacity bitset with
// deterministic ascending iteration — the compact replacement for the
// []bool and map[...]bool component sets the simulator held per node
// (8× to 100× smaller, and iteration order is the index order the
// deterministic protocols already relied on).
package bitset

import "math/bits"

// Set is a dense bitset over [0, n). The zero value is an empty set of
// capacity 0; use New for a sized one. Not safe for concurrent
// mutation.
type Set struct {
	words []uint64
	n     int // capacity in bits
	count int // set bits, maintained exactly
}

// New returns an empty set of capacity n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+63)>>6), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Count returns the number of set bits.
func (s *Set) Count() int { return s.count }

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	return s.words[i>>6]&(1<<(i&63)) != 0
}

// Set sets bit i to v and reports whether the bit changed.
func (s *Set) Set(i int, v bool) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	old := s.words[w]&m != 0
	if old == v {
		return false
	}
	if v {
		s.words[w] |= m
		s.count++
	} else {
		s.words[w] &^= m
		s.count--
	}
	return true
}

// ForEach calls fn for every set bit in ascending index order.
func (s *Set) ForEach(fn func(i int)) {
	for w, word := range s.words {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	n := &Set{words: make([]uint64, len(s.words)), n: s.n, count: s.count}
	copy(n.words, s.words)
	return n
}

// CopyFrom overwrites s with o's contents; capacities must match.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic("bitset: CopyFrom capacity mismatch")
	}
	copy(s.words, o.words)
	s.count = o.count
}

// MemBytes returns the resident heap bytes of the set.
func (s *Set) MemBytes() int64 { return int64(len(s.words))*8 + 40 }
