//go:build race

package store_test

// raceEnabled: the race detector's instrumentation changes what allocates,
// so an allocation ceiling has a second value under it.
const raceEnabled = true
