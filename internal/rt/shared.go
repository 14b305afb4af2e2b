// Package rt is the runtime of the programs the Go back end emits, and
// the part of it the reference interpreter shares.
//
// rt.go is the runtime itself: column-major arrays with per-dimension
// bounds checks, Fortran DO trip counts, the intrinsic helpers, blocked
// goroutine scheduling for DOALL loops, the LRPD shadow state machine
// and the hex-float STATE output protocol. It is ordinary Go of this
// package, so gofmt, vet, the race detector and the dead-code gate read
// it, and it is embedded: Runtime is its text from the runtime marker
// on, which the emitter writes into every program after the program's
// const defaultProcs line. The per-program code (COMMON globals,
// printState, progMain, the units) follows it there; this file declares
// the four names of it the runtime calls, so the package builds alone.
//
// This file also gives the module entry points into the runtime, and
// internal/interp calls them, so each of these semantics exists once:
// the trip count, integer exponentiation, SIGN, integer ABS, and the
// run-time dependence test of Rauchwerger & Padua used by Polaris
// (Section 3.5 of the paper), the Privatizing DOALL (PD) test. During
// speculative parallel execution of a loop the accesses to each shared
// array under test mark a shadow — A_w (written), A_r (read but never
// written in the same iteration), A_np (read before written in some
// iteration, hence not privatizable) — plus the counters w_A (first
// writes per iteration) and m_A (marked elements). A post-execution
// analysis then decides whether the loop was fully parallel:
//
//	any(A_w ∧ A_r)                      → flow/anti dependence: FAIL
//	w_A ≠ m_A and any(A_w ∧ A_np)       → output dependence on a
//	                                       non-privatizable array: FAIL
//	otherwise                            → PASS (privatization removed
//	                                       any output dependences)
//
// The test itself is fully parallel; its simulated cost is
// O(accesses/p + log p), accounted by the machine model.
package rt

import (
	_ "embed"
	"strings"
)

//go:embed rt.go
var src string

// Runtime is the runtime's text as every emitted program carries it.
var Runtime = src[strings.Index(src, "// ---- polaris runtime support"):]

// The per-program names the runtime's harness calls. An emitted program
// declares its own after the runtime.

const defaultProcs = 1

func progMain()   {}
func resetState() {}
func printState() {}

// Trips is the Fortran DO trip count; step must not be 0.
func Trips(init, limit, step int64) int64 { return trips(init, limit, step) }

// IPow is integer exponentiation: a negative exponent gives 0 unless
// the base is 1 or -1.
func IPow(b, e int64) int64 { return ipow(b, e) }

// Sign is Fortran SIGN: |a| carrying b's sign, where b = -0.0 counts
// as positive.
func Sign(a, b float64) float64 { return signf(a, b) }

// IAbs is integer ABS.
func IAbs(x int64) int64 { return iabs(x) }

// Shadow is the PD-test state of one array under test across the
// iterations of one loop execution.
type Shadow = shadow

// NewShadow returns the shadow of an array of n elements.
func NewShadow(n int64) *Shadow { return newShadow(n) }

// MarkRead records a read of element ix in iteration it (1-based).
func (s *shadow) MarkRead(ix, it int64) { s.r(ix, it) }

// MarkWrite records a write to element ix in iteration it (1-based).
func (s *shadow) MarkWrite(ix, it int64) { s.w(ix, it) }

// PDTest runs the post-execution analysis on this one shadow and
// reports whether the loop was fully parallel, with the array
// privatized where that removed output dependences.
func (s *shadow) PDTest() bool { return lrpdPass([]*shadow{s}) }
