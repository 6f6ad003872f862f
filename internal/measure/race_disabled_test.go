//go:build !race

package measure

// raceEnabled reports whether the race detector is compiled in; allocation
// budgets are meaningless under its instrumentation.
const raceEnabled = false
