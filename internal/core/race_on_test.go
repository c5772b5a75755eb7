//go:build race

package core

// raceEnabled reports whether this test binary runs under the race
// detector. The large-mesh churn round-trip consults it: its ~20× race
// slowdown on a 10^5-processor mesh blows the per-package test
// timeout, so it runs only in the non-race suite. The simulator starts
// no goroutines, so the race build loses nothing the detector could
// watch.
const raceEnabled = true
