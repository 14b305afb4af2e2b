package suite

import (
	"context"
	"testing"
)

// TestAblationGridDeterministic sweeps again on a fresh 8-worker Runner
// and requires the package's sweep, also fresh on 8 workers, point for
// point: the ablation grid's cycles and every other figure's, compared
// as bits. This guards the serial-run memo and the worker pool against
// ordering races: any map-iteration or completion-order nondeterminism
// leaking into results shows up as a diff here.
func TestAblationGridDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sweep run; skipped with -short")
	}
	_, first := paperSweep(t)
	r := NewRunner()
	r.Workers = 8
	second, err := r.Sweep(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("%d points, then %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("two -j 8 sweeps differ at point %d:\n first %+v\nsecond %+v", i, first[i], second[i])
		}
	}
	if len(pick(first, "range test", "")) != len(All()) {
		t.Fatal("sweep has no range-test removal over the suite")
	}
}
