package core_test

import (
	"fmt"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// TestOneFinalPerLoop: every compile records exactly one final record
// per loop, in res.Loops order and under its own label, and the record
// says what the Result says: doall exactly when the loop is Parallel,
// lrpd exactly when it has LRPD arrays, serial otherwise. It holds cold,
// while filling the unit memo and when replaying from it; the replay
// runs under another label than the fill, so a memoized record that kept
// its filler's label shows.
func TestOneFinalPerLoop(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, p := range suite.All() {
		progs = append(progs, program{p.Name, p.Source})
	}
	for seed := uint64(1); seed <= 200; seed++ {
		progs = append(progs, program{fmt.Sprintf("fuzzgen-%03d", seed), fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source})
	}
	check := func(p program, path string, memo *core.UnitMemo) {
		obs := obsv.NewObserver()
		opt := core.PolarisOptions()
		opt.UnitMemo = memo
		opt.Observer = obs
		opt.TraceLabel = path
		res, err := core.Compile(parser.MustParse(p.src), opt)
		if err != nil {
			t.Fatalf("%s %s: %v", p.name, path, err)
		}
		if path == "replay" && res.UnitsRecompiled != 0 {
			t.Fatalf("%s: %d units recompiled on the replay", p.name, res.UnitsRecompiled)
		}
		var finals []obsv.Decision
		for _, d := range obs.Decisions() {
			if d.Final {
				finals = append(finals, d)
			}
		}
		if len(finals) != len(res.Loops) {
			t.Errorf("%s %s: %d final records for %d loops", p.name, path, len(finals), len(res.Loops))
			return
		}
		for i, lr := range res.Loops {
			d := finals[i]
			want := "serial"
			if lr.Parallel {
				want = "doall"
			} else if len(lr.RunTimeTest) > 0 {
				want = "lrpd"
			}
			if d.Loop != lr.ID || d.Label != path || d.Verdict != want {
				t.Errorf("%s %s: final record %d is %s %s under %q, want %s %s under %q",
					p.name, path, i, d.Loop, d.Verdict, d.Label, lr.ID, want, path)
			}
		}
	}
	for _, p := range progs {
		check(p, "cold", nil)
		memo := core.NewUnitMemo(core.MemoLimits{})
		check(p, "fill", memo)
		check(p, "replay", memo)
	}
}
