package bitset

import "testing"

func TestSetGetCount(t *testing.T) {
	s := New(200)
	if s.Len() != 200 || s.Count() != 0 {
		t.Fatalf("fresh set: len %d count %d", s.Len(), s.Count())
	}
	for _, i := range []int{0, 63, 64, 127, 199} {
		if !s.Set(i, true) {
			t.Fatalf("Set(%d,true) reported no change", i)
		}
		if s.Set(i, true) {
			t.Fatalf("second Set(%d,true) reported change", i)
		}
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("count %d, want 5", s.Count())
	}
	if !s.Set(63, false) || s.Get(63) || s.Count() != 4 {
		t.Fatalf("clearing bit 63 failed")
	}
}

func TestForEachAscending(t *testing.T) {
	s := New(300)
	want := []int{2, 64, 65, 128, 255, 299}
	for i := len(want) - 1; i >= 0; i-- {
		s.Set(want[i], true)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// equal reports whether both sets hold exactly the same bits.
func equal(s, o *Set) bool {
	if s.n != o.n || s.count != o.count {
		return false
	}
	for i, w := range s.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

func TestCloneCopyFrom(t *testing.T) {
	s := New(100)
	s.Set(3, true)
	s.Set(77, true)
	c := s.Clone()
	if !equal(s, c) {
		t.Fatal("clone not equal")
	}
	c.Set(5, true)
	if equal(s, c) || s.Get(5) {
		t.Fatal("clone aliases original")
	}
	o := New(100)
	o.CopyFrom(s)
	if !equal(o, s) {
		t.Fatal("CopyFrom mismatch")
	}
}
