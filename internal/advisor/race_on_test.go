//go:build race

package advisor

// raceEnabled reports a build with the race detector, whose
// instrumentation moves some values to the heap: allocation counts are
// pinned only without it.
const raceEnabled = true
