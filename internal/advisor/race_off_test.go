//go:build !race

package advisor

// raceEnabled reports a build with the race detector (race_on_test.go).
const raceEnabled = false
