package machine

import "testing"

func TestDefaultSane(t *testing.T) {
	m := Default()
	if m.Processors != 8 {
		t.Errorf("default processors = %d", m.Processors)
	}
	if m.CodegenFactor != 1.0 {
		t.Errorf("default codegen factor = %v", m.CodegenFactor)
	}
	if m.ForkCycles <= 0 || m.JoinCycles <= 0 {
		t.Errorf("non-positive overheads: %+v", m)
	}
}

func TestWithers(t *testing.T) {
	m := Default()
	m2 := m.WithProcessors(4).WithCodegenFactor(0.85)
	if m2.Processors != 4 || m2.CodegenFactor != 0.85 {
		t.Errorf("withers failed: %+v", m2)
	}
	// Original untouched (value semantics).
	if m.Processors != 8 || m.CodegenFactor != 1.0 {
		t.Errorf("withers mutated the receiver: %+v", m)
	}
}

func TestCostTableOrdering(t *testing.T) {
	c := DefaultCost()
	if !(c.AddSub <= c.Mul && c.Mul <= c.Div && c.Div <= c.Pow) {
		t.Errorf("arithmetic cost ordering violated: %+v", c)
	}
	if c.Load <= 0 || c.Store <= 0 || c.LoopIter <= 0 {
		t.Errorf("non-positive basic costs: %+v", c)
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
	for p, want := range cases {
		if got := log2(p); got != want {
			t.Errorf("log2(%d) = %d, want %d", p, got, want)
		}
	}
}
