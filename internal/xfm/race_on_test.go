//go:build race

package xfm

// raceEnabled reports that this binary was built with -race, whose
// instrumentation defeats sync.Pool caching and adds allocations;
// alloc-count tests skip themselves under it.
const raceEnabled = true
