package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/obsv"
	"polaris/internal/parser"
)

// raceDetector is set by race_test.go.
var raceDetector bool

// TestEditClonesWhatItCompiles holds a one-unit edit of mega10k against
// a warm memo to what it may copy and allocate. It copies the top unit,
// the edited unit and one template per callee the inliner expanded —
// nothing else: the other 280-odd units are read where they stand until
// the memo answers for them. And it allocates, parse outside the
// measurement as in TestCompileBytesPerLine, no more than the measured
// bytes per source line plus a tenth.
func TestEditClonesWhatItCompiles(t *testing.T) {
	ctx := context.Background()
	base := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	lines := strings.Count(base, "\n")
	opt := PolarisOptions()
	opt.UnitMemo = NewUnitMemo(MemoLimits{})
	if _, err := CompileContext(ctx, parser.MustParse(base), opt); err != nil {
		t.Fatal(err)
	}
	edit := func(n int) (*ir.Program, string) {
		src, unit := fuzzgen.EditOneUnit(base, n, n)
		if unit == "" {
			t.Fatal("EditOneUnit found no phase to edit")
		}
		return parser.MustParse(src), unit
	}

	prog, edited := edit(1)
	copies := map[string]int{}
	res, err := compile(ctx, prog, opt, func(u *ir.ProgramUnit) { copies[u.Name]++ })
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitsRecompiled != 1 {
		t.Fatalf("the edit of %s recompiled %d units", edited, res.UnitsRecompiled)
	}
	top := res.Unit.Name
	templates := 0
	for name, n := range copies {
		if n != 1 {
			t.Errorf("%s was copied %d times", name, n)
		}
		if name != top && name != edited {
			templates++
		}
	}
	if copies[top] != 1 || copies[edited] != 1 || templates == 0 || templates > res.InlinedCalls {
		t.Errorf("copied %v: want %s, %s and at most one template per inlined call (%d)",
			copies, top, edited, res.InlinedCalls)
	}

	best := uint64(1 << 62)
	for i := 2; i < 5; i++ {
		prog, _ := edit(i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := CompileContext(ctx, prog, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	perLine := float64(best) / float64(lines)
	t.Logf("mega10k edit: %d copies, %d bytes over %d lines, %.0f bytes per line", len(copies), best, lines, perLine)
	const budget = 48 // 43 measured plus a tenth; 62 while the prologue tables were keyed by name (budget 79, set at 72), 91 when the compile re-checked its input, 268 when every unit was cloned up front
	if perLine > budget && !raceDetector {
		t.Errorf("a one-unit edit allocates %.0f bytes per source line; budget %d", perLine, budget)
	}
}

// TestObservedEditAllocs holds an observed one-unit edit of mega10k
// against a warm memo, parse outside the measurement, to what it
// allocates, plus a tenth: the best of three edits, each under a fresh
// capture. The capture's record list, to which every clean unit replays
// a few records per pass, is reserved once, when the unit-hash pass
// has found the clean units: their kept records, and for the dirty
// unit the most any clean unit keeps. Grown by doubling it took the
// edit to 3,821,800 bytes, and re-grown a quarter at a time, as append
// grows a long slice, to 4,726,400.
func TestObservedEditAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation figures do not hold under the race detector")
	}
	ctx := context.Background()
	mega := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	opt := PolarisOptions()
	opt.UnitMemo = NewUnitMemo(MemoLimits{})
	if _, err := CompileContext(ctx, parser.MustParse(mega), opt); err != nil {
		t.Fatal(err)
	}
	best := uint64(1 << 62)
	for tag := 1; tag <= 3; tag++ {
		src, _ := fuzzgen.EditOneUnit(mega, 3, tag)
		prog := parser.MustParse(src)
		opt.Observer = obsv.NewCapture(nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := CompileContext(ctx, prog, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.UnitsRecompiled != 1 {
			t.Fatalf("edit %d recompiled %d units, want 1", tag, res.UnitsRecompiled)
		}
		if len(opt.Observer.Decisions()) == 0 {
			t.Fatalf("edit %d: the observer saw no decisions", tag)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("an observed mega10k edit allocates %d bytes", best)
	const budget = 1_850_400 // 1,682,200 measured plus a tenth
	if best > budget {
		t.Errorf("an observed one-unit edit allocates %d bytes; budget %d", best, budget)
	}
}

// TestClonedResultRetains holds what the Result of a cold compile of
// mega10k keeps alive once the caller has dropped the input, compiled
// without TrustedInput: no more than the measured bytes plus a tenth.
// A unit's clone shares the input's non-formal symbols
// (ir.SymbolTable.Clone), so the result keeps the parse's symbol
// blocks, which hold each run of equal symbols once, where it kept a
// deep copy of every unit's table: 2,155,200 bytes then. And a clone
// keeps its source's length, not its text, a slice of the whole input,
// which took the result to 1,547,900 bytes.
func TestClonedResultRetains(t *testing.T) {
	if raceDetector {
		t.Skip("live-heap figures do not hold under the race detector")
	}
	source := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	compile := func() *Result {
		res, err := CompileContext(context.Background(), parser.MustParse(source), PolarisOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compile() // first-use state: pools, tables built once per process
	before := liveHeap()
	res := compile()
	retained := liveHeap() - before
	runtime.KeepAlive(res)
	t.Logf("mega10k: the result retains %d bytes", retained)
	const budget = 1_396_300 // 1,269,400 measured plus a tenth
	if retained > budget {
		t.Errorf("the result of a cold compile retains %d bytes; budget %d", retained, budget)
	}
}
