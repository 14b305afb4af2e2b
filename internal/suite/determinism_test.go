package suite

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestAblationGridDeterministic runs the full ablation grid twice on
// fresh 8-worker Runners and requires byte-identical reports. This
// guards the serial-run memo and the worker pool against ordering races:
// any map-iteration or completion-order nondeterminism leaking into
// results shows up as a diff here.
func TestAblationGridDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid run; skipped with -short")
	}
	ctx := context.Background()
	render := func() string {
		r := NewRunner()
		r.Workers = 8
		rows, err := r.Ablation(ctx, 8)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, row := range rows {
			// Full float precision: a single-ulp divergence between
			// runs must fail the comparison.
			fmt.Fprintf(&b, "%s|%.17g|%.17g|%d|%s\n",
				row.Technique, row.GeoMean, row.FullGeoMean, row.Hurt,
				strings.Join(row.HurtPrograms, ","))
		}
		return b.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("two -j 8 ablation runs differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "range test|") {
		t.Fatalf("report missing expected technique rows:\n%s", first)
	}
}
