package codegen

import (
	"testing"

	"polaris/internal/core"
	"polaris/internal/suite"
)

// emitted keeps the benchmark's last program, so the compiler cannot
// drop the call that made it.
var emitted string

// BenchmarkEmitGoSuite lowers the 16 suite programs to Go, one pass
// over all of them per iteration, from results compiled once up front:
// the Go share of the suite_cold workload's set-up, without the
// compiles.
func BenchmarkEmitGoSuite(b *testing.B) {
	var results []*core.Result
	for _, p := range suite.All() {
		res, err := core.Compile(p.Parse(), core.PolarisOptions())
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range results {
			out, err := EmitGo(res, GoOptions{})
			if err != nil {
				b.Fatal(err)
			}
			emitted = out
		}
	}
}
