//go:build race

package engine

// The race detector makes sync.Pool drop a random share of the values put
// back, so allocation counts that rely on pooled scratch do not hold.
func init() { raceDetector = true }
