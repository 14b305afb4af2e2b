package parser_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

var update = flag.Bool("update", false, "rewrite testdata/parse.golden from this build's ParseProgram")

type input struct{ name, src string }

// corpus is what the goldens cover: the 16 suite programs, mega10k as
// generated and lower-cased, and the fuzz seeds.
func corpus() []input {
	var in []input
	for _, p := range suite.All() {
		in = append(in, input{"suite/" + p.Name, p.Source})
	}
	src := mega10k()
	in = append(in, input{"mega10k", src}, input{"mega10k/lower", strings.ToLower(src)})
	for i, s := range fuzzgen.ParserSeeds {
		in = append(in, input{fmt.Sprintf("seed/%d", i), s})
	}
	return in
}

func mega10k() string {
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega10k" {
			return spec.Generate().Source
		}
	}
	panic("no mega10k in the corpus")
}

// parseDigest is one golden line's value: the SHA-256 of the program's
// rendering, its FuncsSig and every unit's Source, or the error.
func parseDigest(src string) string {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s", prog.Fortran(), prog.FuncsSig)
	for _, u := range prog.Units {
		fmt.Fprintf(h, "\x00%s", u.Source)
	}
	return fmt.Sprintf("%x %d units", h.Sum(nil), len(prog.Units))
}

// TestParseGolden compares ParseProgram with the ParseProgram it
// replaced: the golden file was written by the slab-taking parser of
// the commit before the Scanner (run there with -update).
func TestParseGolden(t *testing.T) {
	const path = "testdata/parse.golden"
	var got strings.Builder
	for _, in := range corpus() {
		fmt.Fprintf(&got, "%s\t%s\n", in.name, parseDigest(in.src))
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, line, append(wantLines, "<none>")[min(i, len(wantLines))])
		}
	}
}

// sourcesInOrder checks that every unit's Source is a slice of src
// itself, not a copy, and that the slices follow one another.
func sourcesInOrder(src string, prog *ir.Program) error {
	base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	end := 0
	for _, u := range prog.Units {
		if u.Source == "" {
			return fmt.Errorf("unit %s has no Source", u.Name)
		}
		off := int(uintptr(unsafe.Pointer(unsafe.StringData(u.Source))) - base)
		if off < end || off+len(u.Source) > len(src) {
			return fmt.Errorf("unit %s: Source is not the next slice of the input (offset %d after %d of %d)", u.Name, off, end, len(src))
		}
		end = off + len(u.Source)
	}
	return nil
}

func TestSourceIsSliceOfInput(t *testing.T) {
	for _, in := range corpus() {
		prog, err := parser.ParseProgram(in.src)
		if err != nil {
			continue
		}
		if err := sourcesInOrder(in.src, prog); err != nil {
			t.Errorf("%s: %v", in.name, err)
		}
	}
}

// TestParserNeverAliases is where the no-sharing invariant of parsed IR
// is proved: ParseProgram checks each unit's consistency rules but does
// not sweep for aliased nodes, because every node it builds is a fresh
// allocation. The full Check, sweep included, runs here on every input
// of the golden corpus and of fuzzgen seeds 1–200 that parses.
//
// Symbols are the one exception, and it is held here too: a table
// shares the symbols equal to the previous table's, which must stay
// most of mega10k's, but never a formal, and a clone of a unit shares
// none of the program's.
func TestParserNeverAliases(t *testing.T) {
	in := corpus()
	for seed := uint64(1); seed <= 200; seed++ {
		in = append(in, input{fmt.Sprintf("fuzzgen-%03d", seed), fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source})
	}
	parsed := 0
	for _, c := range in {
		prog, err := parser.ParseProgram(c.src)
		if err != nil {
			continue
		}
		parsed++
		if err := prog.Check(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		shared, total := sharedSymbols(t, c.name, prog)
		if c.name == "mega10k" {
			t.Logf("mega10k shares %d of %d symbols (%.1f%%)", shared, total, 100*float64(shared)/float64(total))
			if shared*10 < total*9 {
				t.Errorf("mega10k shares %d of %d symbols, want at least 90%%", shared, total)
			}
		}
	}
	if parsed < 200 {
		t.Errorf("only %d of %d inputs parsed", parsed, len(in))
	}
}

// sharedSymbols counts the table entries of prog that point at a symbol
// an earlier unit's table holds, of all its entries. It fails t on a
// formal held by two tables and on a unit clone that holds a symbol of
// prog.
func sharedSymbols(t *testing.T, name string, prog *ir.Program) (shared, total int) {
	t.Helper()
	holders := map[*ir.Symbol]int{}
	for _, u := range prog.Units {
		for _, s := range u.Symbols.All() {
			if holders[s]++; holders[s] > 1 {
				shared++
			}
			total++
		}
	}
	for _, u := range prog.Units {
		for _, s := range u.Symbols.All() {
			if s.Formal && holders[s] > 1 {
				t.Errorf("%s: formal %s of %s is held by %d tables", name, s.Name, u.Name, holders[s])
			}
		}
		for _, s := range u.Clone().Symbols.All() {
			if holders[s] > 0 {
				t.Errorf("%s: the clone of %s holds the program's symbol %s", name, u.Name, s.Name)
			}
		}
	}
	return shared, total
}

// TestFirstErrorInSourceOrder: the scanner feeds the parser a statement
// at a time, so a lexical error no longer outranks a parse error on an
// earlier line, and the FUNCTION pre-scan, which tokenizes ahead of the
// main pass, does not report what it trips over.
func TestFirstErrorInSourceOrder(t *testing.T) {
	for _, c := range []struct {
		name, src string
		line, col int
		expr      bool
	}{
		{name: "ParseExpr, parse error before lexical error", src: "A +\n#", line: 1, expr: true},
		{name: "ParseExpr, lexical error after a whole expression", src: "A + 1\n  #", line: 2, col: 3, expr: true},
		{"parse error before lexical error",
			"      PROGRAM P\n      X = 1 +\n      Y = 2\n      Z = 3\n      W = #\n      END\n", 2, 0, false},
		{"lexical error before parse error",
			"      PROGRAM P\n      X = #\n      Y = 2\n      Z = 3\n      W = 1 +\n      END\n", 2, 11, false},
		{"lexical error on a FUNCTION line after a parse error",
			"      PROGRAM P\n      X = 1 +\n      END\n      REAL FUNCTION F(Y) #\n      F = Y\n      END\n", 2, 0, false},
		{"lexical error on a FUNCTION line before a parse error",
			"      REAL FUNCTION F(Y) #\n      F = Y\n      END\n      PROGRAM P\n      X = 1 +\n      END\n", 1, 26, false},
		{"lexical error after the last unit",
			"      PROGRAM P\n      END\n      #\n", 3, 7, false},
		{"consistency error before a parse error",
			"      PROGRAM P\n      END\n      SUBROUTINE S\n      A() = 0\n      END\n      SUBROUTINE T\n      X = 1 +\n      END\n", 3, 0, false},
	} {
		_, err := parser.ParseProgram(c.src)
		if c.expr {
			_, err = parser.ParseExpr(c.src)
		}
		var perr *parser.ParseError
		if !errors.As(err, &perr) {
			t.Errorf("%s: error %T (%v), want *ParseError", c.name, err, err)
			continue
		}
		if perr.Line != c.line || (c.col > 0 && perr.Col != c.col) {
			t.Errorf("%s: error at %d:%d (%s), want line %d col %d", c.name, perr.Line, perr.Col, perr.Msg, c.line, c.col)
		}
	}
}

// TestParseBytesPerLine holds ParseProgram to what it hands back: the
// IR, the symbol tables and one string per distinct spelling. It read
// 519 bytes per line of mega10k when the parser took a token slab,
// split the source into a line table and kept a map per symbol table,
// 203.4 when each symbol was an allocation of its own and every list
// grew by doubling, and 173.9 when every table copied all its symbols,
// the ones equal to the previous table's too.
func TestParseBytesPerLine(t *testing.T) {
	src := mega10k()
	lines := strings.Count(src, "\n")
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := parser.ParseProgram(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLine := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(lines)
	const budget = 139 // measured 126.1, plus 10%; parent 173.9; 222.4 with a whole-program alias sweep per parse
	t.Logf("%.1f bytes per line over %d lines", perLine, lines)
	if perLine > budget {
		t.Errorf("ParseProgram allocates %.1f bytes per line of mega10k, budget %d", perLine, budget)
	}
}
