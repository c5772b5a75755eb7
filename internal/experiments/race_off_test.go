//go:build !race

package experiments

// raceEnabled: see race_on_test.go.
const raceEnabled = false
