//go:build race

package linker

// raceEnabled: under the race detector the compiler keeps less on the
// stack (a warm name link allocates 15 times, not 14), so the allocation
// ceiling skips.
const raceEnabled = true
