//go:build race

package main

// raceDetector reports whether the race detector is instrumenting this
// build; the full-run tests skip under it.
const raceDetector = true
