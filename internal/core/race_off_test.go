//go:build !race

package core

// raceDetector reports whether the race detector is instrumenting this
// build; the runner-equivalence sweep trims its costliest cells by it.
const raceDetector = false
