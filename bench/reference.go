package main

import (
	"cmp"
	"slices"
	"time"
)

// The host this benchmark runs on shares its cores, caches and memory
// with other machines, and its speed drifts by up to half over minutes
// (README.md, Run-to-run spread), so runs a few minutes apart
// differ by more than any change worth measuring. The runner therefore
// interleaves a fixed reference computation with the PRAM steps, and
// divides each episode's step times by the mean time the reference took
// during that episode.
//
// The computation must not depend on the simulator, so after the first
// call it neither allocates nor stores pointers: the garbage collector,
// whose pace follows the simulator's heap, never makes it assist or run
// write barriers. Its mix follows the simulator's hot paths: a sort by
// key, random read-modify-writes over a table larger than a core's L2
// cache, and map updates. One warm computation takes about 5 ms on a
// 2.1 GHz Xeon vCPU.
const (
	refTableLen = 1 << 21 // int64s: 16 MB
	refItems    = 1 << 14
	refTouches  = 1 << 17
	refKeys     = 4000
	// refShare is the reference's time as a share of the timed step
	// time: after each step, the runner runs the computation until its
	// time catches up with that share.
	refShare = 0.05
	// refNominalMs is the time of a warm computation on the host the
	// bounds were set on; setup_s is rescaled to a host that takes it.
	refNominalMs = 5.0
)

type refItem struct{ key, val int64 }

// reference holds the computation's working memory, allocated and
// touched once so that samples pay for neither allocation nor page
// faults, and the current episode's samples.
type reference struct {
	table   []int64
	items   []refItem
	counts  map[int64]int64
	credit  float64   // ms of reference time owed to the steps so far
	samples []float64 // ms per computation in this episode
	sink    int64     // keeps the results live
}

func newReference() *reference {
	r := &reference{
		table:   make([]int64, refTableLen),
		items:   make([]refItem, refItems),
		counts:  make(map[int64]int64, refKeys),
		samples: make([]float64, 0, 1024),
	}
	r.once()
	return r
}

// after runs the computation as often as a step of wallMs milliseconds
// calls for.
func (r *reference) after(wallMs float64) {
	if r.credit += refShare * wallMs; r.credit > 0 {
		r.burst()
	}
}

// burst pays off the credit owed. The step before it has evicted the
// table from the caches, so the first computation is untimed: every
// timed one starts warm, whether the steps owe one computation at a time
// (churn-27, matvec-81) or dozens (e1-243-w2). Otherwise a faster
// simulator, owing less per step, would make the reference's mean
// slower.
func (r *reference) burst() {
	r.once()
	for r.credit > 0 {
		ms := r.timed()
		r.samples = append(r.samples, ms)
		r.credit -= ms
	}
}

// episode returns the mean time of the computation over the episode that
// just ended and starts the next one. An episode too short to owe a
// sample gets one. The mean, not the median: when the hypervisor takes
// the vCPU away for a few milliseconds, a 100 ms step absorbs the loss,
// and so must the reference. The median of short samples skips the few
// that were hit; in runs with 3.5 s of stolen time it rose 10% where
// churn-27's steps rose 25%.
func (r *reference) episode() float64 {
	if len(r.samples) == 0 {
		r.samples = append(r.samples, r.warm())
	}
	var sum float64
	for _, ms := range r.samples {
		sum += ms
	}
	m := sum / float64(len(r.samples))
	r.samples = r.samples[:0]
	return m
}

// warm returns the time in milliseconds of one computation that follows
// an untimed one, without recording it as a sample.
func (r *reference) warm() float64 {
	r.once()
	return r.timed()
}

// timed returns the time of one computation in milliseconds.
func (r *reference) timed() float64 {
	t0 := time.Now()
	r.once()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// once runs the computation. Its inputs come from a fixed xorshift
// sequence, so every call does the same work.
func (r *reference) once() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range r.items {
		r.items[i] = refItem{key: int64(next() % 100000), val: int64(i)}
	}
	slices.SortFunc(r.items, func(a, b refItem) int { return cmp.Compare(a.key, b.key) })
	var s int64
	for i := 0; i < refTouches; i++ {
		j := next() % refTableLen
		r.table[j] += int64(i)
		s += r.table[(j*7)%refTableLen]
	}
	clear(r.counts)
	for _, it := range r.items {
		r.counts[it.key%refKeys] += it.val
	}
	for _, v := range r.counts {
		s += v
	}
	r.sink += s + r.items[refItems/2].key
}
