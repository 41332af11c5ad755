//go:build race

package finject

// raceEnabled: see race_off_test.go.
const raceEnabled = true
