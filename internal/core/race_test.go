//go:build race

package core

// raceEnabled reports that the race detector instruments this build, so
// wall-clock ceilings are skipped.
const raceEnabled = true
