package main

import (
	"bytes"
	"reflect"
	"testing"
)

var testProgs = []program{{name: "a", source: "      PROGRAM A\n      END\n", lines: 2}, {name: "b", source: "      PROGRAM B\n      END\n", lines: 2}}

// TestSeedDeterminism: the same seed gives byte-identical request
// bodies, request draws and edit order; another seed gives other bytes
// of the same length.
func TestSeedDeterminism(t *testing.T) {
	b1, w1 := workingSet(testProgs, 7, 64)
	b2, w2 := workingSet(testProgs, 7, 64)
	b3, _ := workingSet(testProgs, 8, 64)
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(w1, w2) {
		t.Error("the same seed built different working sets")
	}
	for i := range b1 {
		if bytes.Equal(b1[i], b3[i]) {
			t.Fatalf("body %d is the same under two seeds", i)
		}
		if len(b1[i]) != len(b3[i]) {
			t.Fatalf("body %d: %d bytes under one seed, %d under another", i, len(b1[i]), len(b3[i]))
		}
	}
	seen := map[string]bool{}
	for _, b := range b1 {
		if seen[string(b)] {
			t.Fatal("two working-set entries share a body")
		}
		seen[string(b)] = true
	}

	e1, e2, e3 := newEditSeq(7), newEditSeq(7), newEditSeq(8)
	same := true
	for i := 0; i < 100; i++ {
		a, b, c := e1.next(), e2.next(), e3.next()
		if a != b {
			t.Fatalf("edit %d differs under the same seed: %+v vs %+v", i, a, b)
		}
		if a.tag != i+1 {
			t.Fatalf("edit %d has tag %d, want %d", i, a.tag, i+1)
		}
		same = same && a.unit == c.unit
	}
	if same {
		t.Error("two seeds gave the same edit order")
	}

	d1, d2 := newRNG(7, "draw0"), newRNG(7, "draw0")
	d3 := newRNG(7, "draw1")
	differs := false
	for i := 0; i < 100; i++ {
		x, y, z := d1.intn(512), d2.intn(512), d3.intn(512)
		if x != y {
			t.Fatalf("draw %d differs under the same seed and stream", i)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Error("two clients draw the same requests")
	}
}

func TestVariantKeepsSourceAndLength(t *testing.T) {
	src := testProgs[0].source
	a, b := variant(src, 1, "cold", 5), variant(src, 99, "suite", 123456)
	if len(a) != len(b) {
		t.Errorf("variants differ in length: %d vs %d", len(a), len(b))
	}
	if a[len(a)-len(src):] != src || a[0] != 'C' {
		t.Errorf("variant is not a comment line before the source: %q", a)
	}
	if nonBlankLines(a) != nonBlankLines(src)+1 {
		t.Errorf("variant adds %d lines, want 1", nonBlankLines(a)-nonBlankLines(src))
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--seed", "3", "--seconds", "12", "--trace", "1"}, []string{"--workload", "x", "--seed", "3", "--seconds", "12", "-trace=1"}},
		{[]string{"--trace", "0", "--seed", "1"}, []string{"-trace=0", "--seed", "1"}},
		{[]string{"-trace"}, []string{"-trace"}},
		{[]string{"-trace", "-workload", "x"}, []string{"-trace", "-workload", "x"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
