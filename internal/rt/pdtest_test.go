package rt

import (
	"testing"
	"testing/quick"
)

// result is the post-execution analysis of one shadow: Pass from the
// PD test, the rest read off the shadow's element arrays and counters,
// which the test has finalized.
type result struct {
	Pass         bool
	FlowAnti     bool
	OutputDep    bool
	Privatizable bool
}

func analyze(s *Shadow) result {
	r := result{Pass: s.PDTest(), OutputDep: s.wA != s.mA, Privatizable: true}
	for e := range s.aw {
		if s.aw[e] && s.ar[e] {
			r.FlowAnti = true
		}
		if s.aw[e] && s.anp[e] {
			r.Privatizable = false
		}
	}
	return r
}

func TestFullyParallelPasses(t *testing.T) {
	s := NewShadow(10)
	// Each iteration i writes element i and reads element i.
	for i := int64(1); i <= 10; i++ {
		s.MarkWrite(i-1, i)
		s.MarkRead(i-1, i)
	}
	r := analyze(s)
	if !r.Pass || r.FlowAnti || r.OutputDep {
		t.Errorf("disjoint accesses failed: %+v", r)
	}
}

func TestFlowDependenceFails(t *testing.T) {
	s := NewShadow(10)
	s.MarkWrite(3, 1)
	s.MarkRead(3, 2) // read in a later iteration, never written there
	r := analyze(s)
	if r.Pass || !r.FlowAnti {
		t.Errorf("flow dependence missed: %+v", r)
	}
}

func TestAntiDependenceFails(t *testing.T) {
	s := NewShadow(10)
	s.MarkRead(5, 1)
	s.MarkWrite(5, 2)
	r := analyze(s)
	if r.Pass || !r.FlowAnti {
		t.Errorf("anti dependence missed: %+v", r)
	}
}

func TestPrivatizableWorkArrayPasses(t *testing.T) {
	s := NewShadow(4)
	// Every iteration writes then reads the same scratch elements:
	// output deps exist but privatization removes them.
	for i := int64(1); i <= 5; i++ {
		for e := int64(0); e < 4; e++ {
			s.MarkWrite(e, i)
			s.MarkRead(e, i)
		}
	}
	r := analyze(s)
	if !r.Pass || !r.OutputDep || !r.Privatizable {
		t.Errorf("privatizable pattern wrong: %+v", r)
	}
}

func TestReadFirstNotPrivatizable(t *testing.T) {
	s := NewShadow(4)
	// Iterations read an element before writing it: not privatizable,
	// and written in several iterations: output dependence. FAIL.
	for i := int64(1); i <= 3; i++ {
		s.MarkRead(2, i)
		s.MarkWrite(2, i)
	}
	r := analyze(s)
	if r.Pass || r.Privatizable || !r.OutputDep {
		t.Errorf("read-first pattern wrong: %+v", r)
	}
	// It must fail via the privatization rule even though it also has
	// the flow/anti marking from the uncovered read.
}

func TestCountersWAandMA(t *testing.T) {
	s := NewShadow(8)
	s.MarkWrite(0, 1)
	s.MarkWrite(0, 1) // same iteration: counted once
	s.MarkWrite(0, 2) // second iteration: wA grows, mA does not
	s.MarkWrite(1, 2)
	if s.wA != 3 || s.mA != 2 {
		t.Errorf("wA=%d mA=%d, want 3 and 2", s.wA, s.mA)
	}
}

// Property: the PD test verdict matches an oracle that checks
// cross-iteration conflicts directly, on random access traces.
func TestPDTestMatchesOracleProperty(t *testing.T) {
	type op struct {
		Iter  uint8
		Elem  uint8
		Write bool
	}
	f := func(ops []op) bool {
		const nElems, nIters = 8, 6
		s := NewShadow(nElems)
		// Normalize and sort ops by iteration to mimic execution order
		// (within an iteration, program order is the slice order).
		type access struct {
			iter int64
			elem int64
			w    bool
		}
		var trace []access
		for it := int64(1); it <= nIters; it++ {
			for _, o := range ops {
				if int64(o.Iter%nIters)+1 == it {
					trace = append(trace, access{it, int64(o.Elem % nElems), o.Write})
				}
			}
		}
		for _, a := range trace {
			if a.w {
				s.MarkWrite(a.elem, a.iter)
			} else {
				s.MarkRead(a.elem, a.iter)
			}
		}
		got := s.PDTest()

		// Oracle, per the paper's definitions:
		//   aw(e):  some iteration writes e
		//   ar(e):  some iteration reads e and never writes it
		//   anp(e): some iteration reads e before its first write of e
		//   FlowAnti  = exists e: aw && ar
		//   OutputDep = exists e: written in more than one iteration
		//   Priv      = not exists e: aw && anp
		//   Pass      = !FlowAnti && (!OutputDep || Priv)
		writesBy := map[int64]map[int64]bool{}    // elem -> iters that write
		readsBy := map[int64]map[int64]bool{}     // elem -> iters that read
		readFirstBy := map[int64]map[int64]bool{} // elem -> iters reading before own write
		for _, a := range trace {
			if a.w {
				if writesBy[a.elem] == nil {
					writesBy[a.elem] = map[int64]bool{}
				}
				writesBy[a.elem][a.iter] = true
			} else {
				if readsBy[a.elem] == nil {
					readsBy[a.elem] = map[int64]bool{}
				}
				readsBy[a.elem][a.iter] = true
				if !writesBy[a.elem][a.iter] {
					if readFirstBy[a.elem] == nil {
						readFirstBy[a.elem] = map[int64]bool{}
					}
					readFirstBy[a.elem][a.iter] = true
				}
			}
		}
		flowAnti, outputDep := false, false
		privOK := true
		for e := int64(0); e < nElems; e++ {
			aw := len(writesBy[e]) > 0
			ar := false
			for it := range readsBy[e] {
				if !writesBy[e][it] {
					ar = true
				}
			}
			anp := false
			for it := range readFirstBy[e] {
				if writesBy[e][it] {
					anp = true
				}
			}
			if aw && ar {
				flowAnti = true
			}
			if aw && anp {
				privOK = false
			}
			if len(writesBy[e]) > 1 {
				outputDep = true
			}
		}
		want := !flowAnti && (!outputDep || privOK)
		if got != want {
			t.Logf("mismatch: got pass=%v want pass=%v trace=%v", got, want, trace)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
