package polaris

import (
	"context"
	"runtime"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/suite"
)

// TestResultSharesLoops holds the public Result to the compile's own
// loop list: Result.Loops is the inner result's slice, not a copy of it,
// so wrapping a compile allocates the same objects and bytes whatever
// the program's loop count — mega10k's thousands of loops as one suite
// program's handful. Copying the list cost an edit of mega50k 0.71 MB.
func TestResultSharesLoops(t *testing.T) {
	ctx := context.Background()
	trfd, _ := suite.ByName("trfd")
	mega10k := fuzzgen.MegaCorpus()[0]
	type cost struct{ objects, bytes uint64 }
	wrapCost := func(name, src string) cost {
		t.Helper()
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Compile(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Loops) == 0 || len(res.Loops) != len(res.inner.Loops) || &res.Loops[0] != &res.inner.Loops[0] {
			t.Errorf("%s: Result.Loops (%d) is not the compile's list (%d)", name, len(res.Loops), len(res.inner.Loops))
		}
		// The best of three rounds: a round the runtime allocates in
		// beside the wraps reads high.
		const rounds, runs = 3, 50
		best := cost{1 << 62, 1 << 62}
		for range rounds {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				wrapResult(res.inner, 1.0)
			}
			runtime.ReadMemStats(&after)
			best.objects = min(best.objects, (after.Mallocs-before.Mallocs)/runs)
			best.bytes = min(best.bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return best
	}
	small := wrapCost("trfd", trfd.Source)
	large := wrapCost(mega10k.Name, mega10k.Generate().Source)
	t.Logf("wrapping trfd: %d objects, %d bytes; %s: %d objects, %d bytes", small.objects, small.bytes, mega10k.Name, large.objects, large.bytes)
	if large != small {
		t.Errorf("wrapping %s allocates %d objects and %d bytes, trfd %d and %d: the wrap copies per loop",
			mega10k.Name, large.objects, large.bytes, small.objects, small.bytes)
	}
}
