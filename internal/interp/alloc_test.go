package interp

import (
	"fmt"
	"testing"

	"polaris/internal/machine"
	"polaris/internal/parser"
)

// TestLoopAllocsDoNotGrowWithTrips: an iteration that reads and writes
// array elements of one and two dimensions and calls intrinsics, nested
// calls among them, allocates nothing, so a loop allocates as much at
// 1000 trips as at 10. A subscript slice per element access and an
// argument slice per call were 98% of the interpreter's allocations.
func TestLoopAllocsDoNotGrowWithTrips(t *testing.T) {
	allocs := func(trips int) float64 {
		prog, err := parser.ParseProgram(fmt.Sprintf(`
      PROGRAM P
      REAL A(1000, 2), B(1000)
      INTEGER I, N
      N = %d
      DO I = 1, N
        B(I) = MAX(FLOAT(MOD(I, 7)), SQRT(ABS(B(I) - 2.0)))
        A(I, 2) = A(I, 1) + B(I) * MIN(I, N - I)
      ENDDO
      END
`, trips))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := New(prog, machine.Default()).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(1000)
	t.Logf("a run allocates %.0f times at 10 trips, %.0f at 1000", few, many)
	if many > few {
		t.Errorf("a run allocates %.0f times at 1000 trips and %.0f at 10: iterations allocate", many, few)
	}
}
