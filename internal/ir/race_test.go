//go:build race

package ir

// Under the race detector sync.Pool drops a share of what is put back,
// so fmt allocates a fresh printer for many of Fortran's Fprintf calls:
// allocation figures do not hold there.
func init() { raceDetector = true }
