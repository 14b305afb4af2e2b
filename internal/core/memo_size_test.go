package core

import (
	"context"
	"runtime"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
)

// TestUnitMemoBooksWhatItHolds: after a cold compile of mega50k, the
// bytes the unit memo books and the live heap dropping the memo frees
// are within a factor of 1.25 of each other, so a memo bounded in bytes
// holds about what its bound says. When an entry's IR was booked at
// twice its source text, the memo held 2.23 times what it booked.
func TestUnitMemoBooksWhatItHolds(t *testing.T) {
	if raceDetector {
		t.Skip("live-heap figures do not hold under the race detector")
	}
	var src string
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega50k" {
			src = spec.Generate().Source
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	memo := NewUnitMemo(MemoLimits{})
	opt := PolarisOptions()
	opt.UnitMemo = memo
	if _, err := CompileContext(context.Background(), parser.MustParse(src), opt); err != nil {
		t.Fatalf("compile: %v", err)
	}
	stats := memo.Stats()
	held := liveHeap()
	runtime.KeepAlive(memo)
	live := held - liveHeap()
	r := float64(live) / float64(stats.Bytes)
	t.Logf("%d entries: %d bytes live, %d booked (%.2f×)", stats.Entries, live, stats.Bytes, r)
	if r < 0.8 || r > 1.25 {
		t.Errorf("the memo holds %d bytes of live heap and books %d (%.2f×, want 0.8–1.25)", live, stats.Bytes, r)
	}
}
