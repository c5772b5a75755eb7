//go:build race

package experiments

// raceEnabled reports whether this test binary runs under the race
// detector. TestExperimentGolden consults it for E15, which alone takes
// about half the package's race time. Experiments start no goroutines,
// so the race build loses nothing the detector could watch, and the
// non-race suite still compares E15 with its golden files.
const raceEnabled = true
