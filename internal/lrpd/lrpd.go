// Package lrpd implements the run-time dependence test of Rauchwerger
// & Padua used by Polaris (Section 3.5 of the paper): the Privatizing
// DOALL (PD) test. During speculative parallel execution of a loop the
// accesses to each shared array under test mark shadow arrays — A_w
// (written), A_r (read but never written in the same iteration), A_np
// (read before written in some iteration, hence not privatizable) —
// plus the counters w_A (first writes per iteration) and m_A (marked
// elements). A post-execution analysis then decides whether the loop
// was fully parallel:
//
//	any(A_w ∧ A_r)                      → flow/anti dependence: FAIL
//	w_A ≠ m_A and any(A_w ∧ A_np)       → output dependence on a
//	                                       non-privatizable array: FAIL
//	otherwise                            → PASS (privatization removed
//	                                       any output dependences)
//
// The test itself is fully parallel; its simulated cost is
// O(accesses/p + log p), accounted by the machine model.
package lrpd

// Shadow tracks one array under test across the iterations of one loop
// execution.
type Shadow struct {
	n int
	// wIter / rIter record the last iteration (1-based; 0 = never)
	// that wrote / performed an uncovered read of each element.
	wIter []int64
	rIter []int64
	// pending marks an uncovered read whose iteration has not (yet)
	// written the element: it becomes A_r if the iteration never
	// writes it, or A_np if a write follows in the same iteration.
	pending []bool
	aw      []bool
	ar      []bool
	anp     []bool
	// wA counts first-writes-per-iteration; mA counts marked elements
	// of aw.
	wA int64
	mA int64
}

// NewShadow returns shadow state for an array of n elements.
func NewShadow(n int) *Shadow {
	return &Shadow{
		n:       n,
		wIter:   make([]int64, n),
		rIter:   make([]int64, n),
		pending: make([]bool, n),
		aw:      make([]bool, n),
		ar:      make([]bool, n),
		anp:     make([]bool, n),
	}
}

// MarkWrite records a write to element e in iteration iter (1-based).
func (s *Shadow) MarkWrite(e int, iter int64) {
	if s.pending[e] {
		if s.rIter[e] == iter {
			// Read earlier in the same iteration: not privatizable.
			s.anp[e] = true
		} else {
			// An earlier iteration's read was never covered: A_r.
			s.ar[e] = true
		}
		s.pending[e] = false
	}
	if s.wIter[e] != iter {
		// First write of this iteration to e.
		s.wA++
		if !s.aw[e] {
			s.aw[e] = true
			s.mA++
		}
		s.wIter[e] = iter
	}
}

// MarkRead records a read of element e in iteration iter.
func (s *Shadow) MarkRead(e int, iter int64) {
	if s.wIter[e] == iter {
		return // covered by a same-iteration write: private use
	}
	if s.pending[e] && s.rIter[e] != iter {
		// The previous iteration's read stayed uncovered.
		s.ar[e] = true
	}
	s.pending[e] = true
	s.rIter[e] = iter
}

// Result is the outcome of the post-execution analysis.
type Result struct {
	// Pass reports whether the loop was fully parallel (with
	// privatization of the tested array where needed).
	Pass bool
	// FlowAnti reports a detected flow or anti dependence.
	FlowAnti bool
	// OutputDep reports output dependences (some element written in
	// more than one iteration).
	OutputDep bool
	// Privatizable reports whether privatizing the array was valid
	// (no element read before being written within an iteration).
	Privatizable bool
}

// Analyze performs the post-execution phase of the PD test.
func (s *Shadow) Analyze() Result {
	r := Result{Privatizable: true}
	for e := 0; e < s.n; e++ {
		if s.pending[e] {
			// A read whose iteration never wrote the element: A_r.
			s.ar[e] = true
			s.pending[e] = false
		}
		if s.aw[e] && s.ar[e] {
			r.FlowAnti = true
		}
		if s.aw[e] && s.anp[e] {
			r.Privatizable = false
		}
	}
	r.OutputDep = s.wA != s.mA
	r.Pass = !r.FlowAnti && (!r.OutputDep || r.Privatizable)
	return r
}
