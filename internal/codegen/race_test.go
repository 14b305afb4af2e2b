//go:build race

package codegen

// Under the race detector sync.Pool drops a share of what is put back,
// so fmt allocates a fresh printer for many of the render's Fprintf
// calls: byte budgets do not hold there.
func init() { raceDetector = true }
