//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a random quarter of
// what it is given, so the tests that count on a pooled matcher skip.
const raceEnabled = true
