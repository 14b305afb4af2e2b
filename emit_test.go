package polaris_test

// Tests for the emit surface: Result.Emit(w, ...EmitOption) with the
// EmitFortran / EmitGo targets.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"polaris"
)

// TestEmitAPIBackcompat pins the Fortran target: the annotated source
// with its directives, byte-identical whether EmitFortran is named or
// left as the default target.
func TestEmitAPIBackcompat(t *testing.T) {
	prog, err := polaris.Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var viaEmit bytes.Buffer
	if err := res.Emit(&viaEmit, polaris.EmitFortran); err != nil {
		t.Fatal(err)
	}
	fortran := viaEmit.String()
	if !strings.Contains(fortran, "C$OMP PARALLEL DO") {
		t.Fatalf("annotated source lost its directives:\n%s", fortran)
	}
	var viaDefault bytes.Buffer
	if err := res.Emit(&viaDefault); err != nil {
		t.Fatal(err)
	}
	if viaDefault.String() != fortran {
		t.Errorf("Emit with no options must default to the Fortran target")
	}
}

// TestEmitGoTarget checks the Go target through the public API: a
// standalone main package with the requested worker count baked in.
func TestEmitGoTarget(t *testing.T) {
	prog, err := polaris.Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Emit(&b, polaris.EmitGo, polaris.WithEmitProcessors(4), polaris.WithEmitLabel("facade")); err != nil {
		t.Fatal(err)
	}
	src := b.String()
	for _, want := range []string{
		"package main",
		"const defaultProcs = 4",
		"facade",
		"parfor(",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted Go missing %q", want)
		}
	}
}
