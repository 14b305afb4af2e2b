package polaris

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/interproc"
	"polaris/internal/ir"
	"polaris/internal/suite"
)

// renderInput is everything a compile could write in its input: each
// unit's text, formal list, and every field of its symbols. A clone of
// a unit shares the input's non-formal symbols, so a write through one
// shows here whichever field it hits.
func renderInput(p *Program) string {
	var b strings.Builder
	orNone := func(e ir.Expr) string {
		if e == nil {
			return "-"
		}
		return e.String()
	}
	for _, u := range p.ir.Units {
		fmt.Fprintf(&b, "%s\nformals %q\n", u.Fortran(), u.Formals)
		for _, sym := range u.Symbols.All() {
			fmt.Fprintf(&b, "%s type=%s formal=%t param=%s common=%q dims=", sym.Name, sym.Type, sym.Formal, orNone(sym.Param), sym.Common)
			for _, d := range sym.Dims {
				fmt.Fprintf(&b, "%s:%s,", orNone(d.Lo), orNone(d.Hi))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// appendContinue edits the last unit of src: one CONTINUE ahead of its
// END, which changes that unit's text and nothing else.
func appendContinue(src string) string {
	i := strings.LastIndex(src, "      END")
	return src[:i] + "      CONTINUE\n" + src[i:]
}

// TestCompileNeverWritesItsInput holds the ownership rule on every path
// a compile takes: planning the interprocedural specialization, a cold
// compile, a compile that fills a memo, and a compile of an edited
// program that the memo answers most of. The input renders the same
// before and after each, and no unit of a result is a unit of an input.
func TestCompileNeverWritesItsInput(t *testing.T) {
	ctx := context.Background()
	type input struct{ name, src, edited string }
	var inputs []input
	for _, p := range suite.All() {
		inputs = append(inputs, input{p.Name, p.Source, appendContinue(p.Source)})
	}
	for seed := uint64(1); seed <= 200; seed++ {
		src := fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source
		inputs = append(inputs, input{fmt.Sprintf("fuzzgen-%03d", seed), src, appendContinue(src)})
	}
	mega := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	megaEdited, unit := fuzzgen.EditOneUnit(mega, 3, 7)
	if unit == "" {
		t.Fatal("EditOneUnit found no phase to edit")
	}
	inputs = append(inputs, input{"mega10k", mega, megaEdited})

	for _, in := range inputs {
		p, err := Parse(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		edited, err := Parse(in.edited)
		if err != nil {
			t.Fatalf("%s, edited: %v", in.name, err)
		}
		want, wantEdited := renderInput(p), renderInput(edited)
		inputUnits := map[*ir.ProgramUnit]bool{}
		for _, u := range append(p.ir.Units[:len(p.ir.Units):len(p.ir.Units)], edited.ir.Units...) {
			inputUnits[u] = true
		}
		check := func(step string, res *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s, %s: %v", in.name, step, err)
			}
			if renderInput(p) != want || renderInput(edited) != wantEdited {
				t.Fatalf("%s: %s wrote its input", in.name, step)
			}
			if res == nil {
				return
			}
			for _, u := range res.inner.Program.Units {
				if inputUnits[u] {
					t.Errorf("%s, %s: unit %s of the result is a unit of the input", in.name, step, u.Name)
				}
			}
		}

		interproc.Analyze(p.ir)
		check("interproc planning", nil, nil)
		res, err := Compile(ctx, p)
		check("cold compile", res, err)
		memo := NewUnitMemo(0, 0)
		res, err = Compile(ctx, p, WithIncremental(memo))
		check("compile with a cold memo", res, err)
		res, err = Compile(ctx, edited, WithIncremental(memo))
		check("compile of an edit with a warm memo", res, err)
		if in.name == "mega10k" && res.UnitsRecompiled != 1 {
			t.Errorf("mega10k: the one-unit edit recompiled %d units", res.UnitsRecompiled)
		}
	}
}
