//go:build !race

package rs

// raceEnabled: see race_test.go.
const raceEnabled = false
