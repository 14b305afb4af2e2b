package suite

import (
	"context"
	"testing"

	"polaris/internal/core"
)

// BenchmarkSuiteCompileCold measures a cold-cache full-suite
// compilation: all sixteen Figure 7 programs under the full technique
// set, parse included, no memoized results.
func BenchmarkSuiteCompileCold(b *testing.B) {
	progs := All()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := core.CompileContext(ctx, p.Parse(), core.PolarisOptions()); err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
		}
	}
}
