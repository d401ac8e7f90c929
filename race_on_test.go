//go:build race

package gqa

// raceEnabled: the race detector's instrumentation changes what allocates,
// so the allocation ceilings skip under it.
const raceEnabled = true
