//go:build race

package rs

// raceEnabled reports that the race detector instruments this build; its
// sync.Pool drops a quarter of what is put back, so allocation-count
// assertions are skipped.
const raceEnabled = true
