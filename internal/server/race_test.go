//go:build race

package server

// Under the race detector sync.Pool drops a share of what is put back,
// so encoding/json and fmt allocate fresh state for many calls: byte
// budgets do not hold there.
func init() { raceDetector = true }
