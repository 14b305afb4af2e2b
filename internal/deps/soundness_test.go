package deps

import (
	"fmt"
	"testing"
	"testing/quick"

	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// TestAnalyzerSoundnessProperty checks the central soundness property
// of the dependence analyzer: whenever a loop is reported parallel, a
// brute-force enumeration of its iteration space finds no
// cross-iteration conflict. (The converse — completeness — is not
// required; the tests are conservative.)
func TestAnalyzerSoundnessProperty(t *testing.T) {
	type coeffs struct {
		C0, C1, C2, Q int8
	}
	f := func(fc, gc coeffs, n1Raw, n2Raw uint8) bool {
		n1 := int64(n1Raw%6) + 1
		n2 := int64(n2Raw%6) + 1
		mk := func(c coeffs) string {
			// subscript: c0 + c1*I + c2*J + q*I*I, coefficients in [-3,3]
			return fmt.Sprintf("(%d) + (%d)*I + (%d)*J + (%d)*I*I",
				int64(c.C0%4), int64(c.C1%4), int64(c.C2%4), int64(c.Q%2))
		}
		src := fmt.Sprintf(`
      PROGRAM P
      INTEGER I, J
      REAL A(-1000:1000)
      DO I = 1, %d
        DO J = 1, %d
          A(%s) = A(%s) + 1.0
        END DO
      END DO
      END
`, n1, n2, mk(fc), mk(gc))
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("generated source failed to parse: %v\n%s", err, src)
		}
		u := prog.Main()
		tester := NewTester(u, rng.New(u, symbolic.NewLeaves()))
		loops := ir.Loops(u.Body)

		eval := func(c coeffs, i, j int64) int64 {
			return int64(c.C0%4) + int64(c.C1%4)*i + int64(c.C2%4)*j + int64(c.Q%2)*i*i
		}
		// Brute force: carried-by-outer conflict = same address touched
		// in different I iterations, at least one side the write.
		carriedOuter := false
		carriedInner := false
		for i1 := int64(1); i1 <= n1; i1++ {
			for j1 := int64(1); j1 <= n2; j1++ {
				w1 := eval(fc, i1, j1)
				for i2 := int64(1); i2 <= n1; i2++ {
					for j2 := int64(1); j2 <= n2; j2++ {
						if i1 == i2 && j1 == j2 {
							continue
						}
						w2 := eval(fc, i2, j2)
						r2 := eval(gc, i2, j2)
						conflict := w1 == w2 || w1 == r2
						if conflict {
							if i1 != i2 {
								carriedOuter = true
							}
							if i1 == i2 && j1 != j2 {
								carriedInner = true
							}
						}
					}
				}
			}
		}
		for idx, loop := range loops {
			for _, cfg := range []Config{{}, {LinearOnly: true}, {Permutation: true}} {
				v := tester.AnalyzeLoop(loop, cfg)
				if !v.Parallel {
					continue
				}
				if idx == 0 && carriedOuter {
					t.Logf("UNSOUND outer: %s\ncfg=%+v reason=%s", src, cfg, v.Reason)
					return false
				}
				if idx == 1 && carriedInner {
					t.Logf("UNSOUND inner: %s\ncfg=%+v reason=%s", src, cfg, v.Reason)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestTriangularSoundnessProperty repeats the soundness check on
// triangular nests, where the range test does the heavy lifting.
func TestTriangularSoundnessProperty(t *testing.T) {
	f := func(c1Raw, c2Raw, c0Raw int8, nRaw uint8) bool {
		n := int64(nRaw%7) + 1
		c1 := int64(c1Raw % 3)
		c2 := int64(c2Raw % 3)
		c0 := int64(c0Raw % 5)
		src := fmt.Sprintf(`
      PROGRAM P
      INTEGER I, J
      REAL A(-2000:2000)
      DO I = 1, %d
        DO J = 1, I
          A((%d)*I + (%d)*J + (%d)) = 1.0
        END DO
      END DO
      END
`, n, c1, c2, c0)
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		u := prog.Main()
		tester := NewTester(u, rng.New(u, symbolic.NewLeaves()))
		outer := ir.Loops(u.Body)[0]

		eval := func(i, j int64) int64 { return c1*i + c2*j + c0 }
		carried := false
		for i1 := int64(1); i1 <= n && !carried; i1++ {
			for j1 := int64(1); j1 <= i1; j1++ {
				for i2 := i1 + 1; i2 <= n; i2++ {
					for j2 := int64(1); j2 <= i2; j2++ {
						if eval(i1, j1) == eval(i2, j2) {
							carried = true
						}
					}
				}
			}
		}
		v := tester.AnalyzeLoop(outer, Config{Permutation: true})
		if v.Parallel && carried {
			t.Logf("UNSOUND: %s", src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
