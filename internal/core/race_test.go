//go:build race

package core

// Under the race detector sync.Pool drops a share of what is put back,
// so fmt allocates a fresh printer for many Sprintf calls: byte budgets
// do not hold there.
func init() { raceDetector = true }
