//go:build !race

package gqa

const raceEnabled = false
