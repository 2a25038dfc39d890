//go:build race

package main

// raceEnabled reports a -race build, whose slowdown can push every ladder
// rate past the latency limit.
const raceEnabled = true
