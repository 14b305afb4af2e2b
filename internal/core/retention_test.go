package core_test

import (
	"context"
	"runtime"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
)

// TestUnitMemoDoesNotPinSource: a memo entry keeps its unit, its
// records and its own copy of the unit's source text. When token text
// and ProgramUnit.Source were slices of the compiled source, every
// entry kept the whole source of the compile that filled it alive, so
// each one-unit edit of a resident program grew the heap by the
// program's size (248 KB here, 1.2 MB on mega50k) while the memo's byte
// count, which sizes entries by their own text, saw a few KB.
func TestUnitMemoDoesNotPinSource(t *testing.T) {
	base := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	memo := core.NewUnitMemo(core.MemoLimits{})
	opt := core.PolarisOptions()
	opt.UnitMemo = memo
	compile := func(src string) *core.Result {
		res, err := core.CompileContext(context.Background(), mustParse(t, src), opt)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return res
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	compile(base)
	heapBefore, memoBefore := liveHeap(), memo.Stats().Bytes

	const edits = 30
	for i := 1; i <= edits; i++ {
		edited, unit := fuzzgen.EditOneUnit(base, i, i)
		if unit == "" {
			t.Fatal("EditOneUnit found no phase to edit")
		}
		if res := compile(edited); res.UnitsRecompiled != 1 {
			t.Fatalf("edit %d (%s): %d units recompiled, want 1", i, unit, res.UnitsRecompiled)
		}
	}
	heapPer := (liveHeap() - heapBefore) / edits
	memoPer := (memo.Stats().Bytes - memoBefore) / edits
	t.Logf("per edit of a %d KB source: live heap %+d bytes, memo.bytes %+d", len(base)>>10, heapPer, memoPer)
	if heapPer > 64<<10 {
		t.Errorf("live heap grows by %d bytes per one-unit edit (memo.bytes by %d): entries retain more than they hold", heapPer, memoPer)
	}
	runtime.KeepAlive(memo)
}
