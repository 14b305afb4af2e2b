package core_test

import (
	"encoding/json"
	"sync"
	"testing"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/obsv"
)

// TestConcurrentCompilesShareInput: eight compiles of one parsed program
// at once, against one unit memo, each agree with a compile that had the
// program to itself. Until a compile copies a unit it reads the input's,
// and so do the other seven: a write to a unit nobody cloned is a data
// race here (run under -race), not only a broken contract.
func TestConcurrentCompilesShareInput(t *testing.T) {
	src := fuzzgen.GenerateMega(fuzzgen.MegaConfig{Seed: 1001, TargetLines: 2000}).Source
	compile := func(prog *ir.Program, memo *core.UnitMemo) (*core.Result, string, error) {
		obs := obsv.NewObserver()
		opt := core.PolarisOptions()
		opt.UnitMemo = memo
		opt.Observer = obs
		opt.TraceLabel = "P"
		res, err := core.Compile(prog, opt)
		if err != nil {
			return nil, "", err
		}
		decisions, err := json.Marshal(obs.Decisions())
		return res, codegen.EmitFortran(res) + string(decisions), err
	}
	res, want, err := compile(mustParse(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InterprocConstants) == 0 || res.InlinedCalls == 0 {
		t.Fatalf("%d constants propagated, %d calls inlined: the prologue has nothing to write",
			len(res.InterprocConstants), res.InlinedCalls)
	}

	const compiles = 8
	shared, memo := mustParse(t, src), core.NewUnitMemo(core.MemoLimits{})
	got, errs := make([]string, compiles), make([]error, compiles)
	var wg sync.WaitGroup
	for i := 0; i < compiles; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[i], errs[i] = compile(shared, memo)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("compile %d of the shared program differs from the solo compile", i)
		}
	}
}

// TestRenderedKeysCoverThePlan: a program without parse metadata keys
// every unit by its rendering, and the rendering must show the
// interprocedural edits although no pass has applied them to the input:
// unit-hash takes such a unit, which applies them, before it renders.
// Were the key taken over the unit as parsed, W and S2 below would
// replay from the memo with a constant that no longer holds.
func TestRenderedKeysCoverThePlan(t *testing.T) {
	parse := func(n1, n2 int) *ir.Program {
		prog := mustParse(t, interprocSrc(n1, n2))
		prog.FuncsSig = "" // as ir.Program.Merge leaves it
		return prog
	}
	opt := core.PolarisOptions()
	opt.UnitMemo = core.NewUnitMemo(core.MemoLimits{})
	if _, err := core.Compile(parse(8, 8), opt); err != nil {
		t.Fatal(err)
	}
	v2 := parse(16, 8)
	before := v2.Fortran()
	inc, err := core.Compile(v2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if inc.UnitsRecompiled != 3 || inc.UnitsReused != 1 {
		t.Errorf("recompiled %d / reused %d units, want 3 (S1, S2, W) and 1 (MAIN)", inc.UnitsRecompiled, inc.UnitsReused)
	}
	if v2.Fortran() != before {
		t.Error("keying units by their rendering wrote the input")
	}
	cold, err := core.Compile(parse(16, 8), core.PolarisOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inc.Program.Fortran(), cold.Program.Fortran(); got != want {
		t.Errorf("incremental program differs from the cold compile:\n%s\n--- cold\n%s", got, want)
	}
}
