package core_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// sameFormalSrc has two subroutines with a formal of one name and
// declaration, which every call passes a different constant:
// interprocedural propagation makes N a PARAMETER of 4 in A and of 8 in
// B. A trusted compile binds each in place, so the two Ns must be two
// symbols even though the parse shares the unit's equal symbols with
// the unit before.
const sameFormalSrc = `
      PROGRAM TWO
      COMMON /W/ X(10)
      CALL A(4)
      CALL B(8)
      Y = X(4) + X(8)
      END
      SUBROUTINE A(N)
      INTEGER N
      COMMON /W/ X(10)
      DO I = 1, N
        X(I) = 1.0
      END DO
      END
      SUBROUTINE B(N)
      INTEGER N
      COMMON /W/ X(10)
      DO I = 1, N
        X(I) = X(I) + 2.0
      END DO
      END
`

// TestTrustedCompileEqualsCloned: a compile that takes the parsed units
// in place (Options.TrustedInput) emits the same Fortran and the same
// decision stream as one that clones every unit it writes, on the 16
// suite programs, fuzzgen seeds 1–200, mega10k and a hand case whose
// units share a formal's name. Each side parses its own program, as a
// trusted compile's caller must.
func TestTrustedCompileEqualsCloned(t *testing.T) {
	type input struct{ name, src string }
	in := []input{{"same-formal", sameFormalSrc}, {"mega10k", fuzzgen.MegaCorpus()[0].Generate().Source}}
	for _, p := range suite.All() {
		in = append(in, input{"suite/" + p.Name, p.Source})
	}
	for seed := uint64(1); seed <= 200; seed++ {
		in = append(in, input{fmt.Sprintf("fuzzgen-%03d", seed), fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source})
	}
	compiled := func(name, src string, trusted bool) string {
		obs := obsv.NewObserver()
		opt := core.PolarisOptions()
		opt.Observer = obs
		opt.TraceLabel = "P"
		opt.TrustedInput = trusted
		res, err := core.Compile(parser.MustParse(src), opt)
		if err != nil {
			t.Fatalf("%s (trusted %t): %v", name, trusted, err)
		}
		decisions, err := json.Marshal(obs.Decisions())
		if err != nil {
			t.Fatal(err)
		}
		return codegen.EmitFortran(res) + "\n" + string(decisions)
	}
	for _, c := range in {
		if compiled(c.name, c.src, true) != compiled(c.name, c.src, false) {
			t.Errorf("%s: a trusted compile differs from a cloning one", c.name)
		}
	}
}
