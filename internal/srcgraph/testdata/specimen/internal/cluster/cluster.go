// Package cluster stands in for a test-support package: only tests
// import it, so the unreachable check does not report its functions.
package cluster

// Start is called only by tests.
func Start() int { return 1 }
