package main

import (
	"testing"
	"time"
)

// TestSelfTimeNestedAndBackToBack: self time is the span minus what
// its direct children cover, whether they nest, abut or overlap.
func TestSelfTimeNestedAndBackToBack(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parser", Start: 0, End: 30},
		{ID: 3, Parent: 2, Name: "lexer", Start: 0, End: 20},
		{ID: 4, Parent: 1, Name: "core", Start: 30, End: 90}, // back to back with parser
		{ID: 5, Parent: 4, Name: "pass.a", Start: 30, End: 50},
		{ID: 6, Parent: 4, Name: "pass.b", Start: 50, End: 80}, // back to back with pass.a
		{ID: 7, Parent: 4, Name: "pass.c", Start: 70, End: 85}, // overlaps pass.b
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 10, 2: 10, 3: 20, 4: 5, 5: 20, 6: 30, 7: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	tot := totalsByName(spans)
	if tot.busy["core"] != 60 || tot.self["core"] != 5 {
		t.Errorf("totals: core busy %d self %d", tot.busy["core"], tot.self["core"])
	}
}

// TestSumOfParts: a parent's duration must equal its self time plus
// its children, and no child may leave its parent.
func TestSumOfParts(t *testing.T) {
	good := []span{
		{ID: 1, Name: "core", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "pass.a", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "pass.b", Start: 40, End: 90},
	}
	if bad := checkSumOfParts(good, 0); len(bad) != 0 {
		t.Errorf("well-formed spans rejected: %v", bad)
	}
	escaping := append([]span(nil), good...)
	escaping[2].End = 120
	if bad := checkSumOfParts(escaping, 0); len(bad) == 0 {
		t.Error("a child past its parent's end was accepted")
	}
	overlapping := append([]span(nil), good...)
	overlapping[2].Start = 20 // children now sum to 110 of 100
	if bad := checkSumOfParts(overlapping, 0.05); len(bad) == 0 {
		t.Error("children summing past their parent were accepted")
	}
	orphan := []span{{ID: 2, Parent: 9, Name: "x", Start: 0, End: 1}}
	if bad := checkSumOfParts(orphan, 0); len(bad) == 0 {
		t.Error("a span with a missing parent was accepted")
	}
}

// TestLayOut: reported durations become back-to-back children from the
// parent's start, clipped to its end.
func TestLayOut(t *testing.T) {
	epoch := time.Unix(0, 0)
	r := newOpSpans(3, epoch)
	root := r.add("op", 0, epoch, epoch.Add(100))
	core := r.add("core", root, epoch.Add(10), epoch.Add(60))
	r.layOut(core, []string{"pass.a", "pass.b", "pass.c"}, []time.Duration{20, 25, 30})
	want := [][2]int64{{10, 30}, {30, 55}, {55, 60}}
	for i, w := range want {
		s := r.spans[2+i]
		if s.Parent != core || s.Start != w[0] || s.End != w[1] || s.Op != 3 {
			t.Errorf("child %d = %+v, want [%d,%d] under %d", i, s, w[0], w[1], core)
		}
	}
	if bad := checkSumOfParts(r.spans, 0); len(bad) != 0 {
		t.Errorf("laid-out spans fail the sum-of-parts check: %v", bad)
	}
}
