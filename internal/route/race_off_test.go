//go:build !race

package route

// raceEnabled: see race_on_test.go.
const raceEnabled = false
