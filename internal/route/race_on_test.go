//go:build race

package route

// raceEnabled reports whether this test binary runs under the race
// detector. The side-81 sorting oracle consults it: the round-by-round
// RotateSort reference takes seconds and over a gigabyte of
// allocations per call at that side, which the race detector slows
// many times over, so it runs only in the non-race suite.
const raceEnabled = true
