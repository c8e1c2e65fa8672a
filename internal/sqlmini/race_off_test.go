//go:build !race

package sqlmini

// raceBuild reports whether the tests run under the race detector, whose
// instrumentation and sync.Pool (it drops a share of puts) change
// allocation counts.
const raceBuild = false
