package fuzzgen

// MegaSpec is one entry of the standing megaprogram scaling corpus:
// a name, the generator seed, and the target size. The corpus is
// checked in as seeds, not files — regenerating a spec always yields
// the same source, and the fixture tests (internal/suite) pin each
// seed's unit/loop/DOALL counts so the scaling benchmark cannot
// silently drift into measuring a different program.
type MegaSpec struct {
	Name        string
	Seed        uint64
	TargetLines int
}

// Config returns the generator configuration for the spec.
func (s MegaSpec) Config() MegaConfig {
	return MegaConfig{Seed: s.Seed, TargetLines: s.TargetLines}
}

// Generate builds the spec's program.
func (s MegaSpec) Generate() *MegaProgram { return GenerateMega(s.Config()) }

// MegaCorpus returns the standing scaling corpus, smallest first:
// the three BenchmarkMegaCompile sizes; the repo benchmark (bench/)
// compiles the middle one. Entries are append-only: changing a seed or
// size makes figures recorded across commits incomparable.
func MegaCorpus() []MegaSpec {
	return []MegaSpec{
		{Name: "mega10k", Seed: 1001, TargetLines: 10_000},
		{Name: "mega50k", Seed: 1002, TargetLines: 50_000},
		{Name: "mega100k", Seed: 1003, TargetLines: 100_000},
	}
}

// ParserSeeds are the hand-written inputs FuzzParseProgram starts from.
// The lexer and parser golden tests read the same list, so an input
// worth fuzzing from is also one whose token stream and parse are
// pinned. Append only: the goldens are keyed by position.
var ParserSeeds = []string{
	"      PROGRAM P\n      END\n",
	"      PROGRAM P\n      REAL A(10)\n      DO I = 1, 10\n        A(I) = I\n      END DO\n      END\n",
	"      PROGRAM P\n      X = 1 +\n      END\n",
	"      PROGRAM P\n      IF (X .GT. 1) THEN\n      END\n",
	"      SUBROUTINE S(A, N)\n      REAL A(N)\n      A(1) = 2.0\n      RETURN\n      END\n",
	"      PROGRAM P\n      DO 10 I = 1, 5\n   10 CONTINUE\n      END\n",
	"      PROGRAM P",
	"",
	"\x00\xff",
	"      PROGRAM P\n      A(1 = 2\n      END\n",
	"SUBROUTINE A\nA()=0\nEND",
	// Statement assembly: continuations with blank, comment and
	// C-leading lines inside, one that runs into the end of the source,
	// CRLF line ends, trailing comments, a FUNCTION header split over
	// '&', and lower case throughout.
	"      program p\n      x = f(1) + &\n\nC + &\n! note\n          g(2) ! tail\n      end\n" +
		"      real function &\n     f(y)\n      f = y\n      end\n      function g(y)\n      g = y*2.5d0\n      end\n",
	"      PROGRAM P\r\n      X = 1 + &\r\n     2\r\n      END\r\n",
	"      PROGRAM P\n      X = 1\n      END &",
	"      PROGRAM P\n      X = 1 + &\n",
	"      X = 1 + &\nC function h\n      PROGRAM P\n      Y = H(1)\n      END\n",
	"      PROGRAM P\n      L = 2 ** 3 <= 4 .AND. .NOT. Y /= 1.5E+3\n 10   CONTINUE\n      END\n",
}
