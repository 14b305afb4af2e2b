package parser_test

import (
	"errors"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
)

// FuzzParseProgram checks the parser's boundary contract on arbitrary
// input: it must never panic, every failure must surface as a
// *ParseError with a sane position, and anything it accepts must carry
// unit sources cut from the input, alias no node, and render back to
// Fortran that parses. Run with
//
//	go test -fuzz=FuzzParseProgram -fuzztime=30s ./internal/parser
func FuzzParseProgram(f *testing.F) {
	for _, s := range fuzzgen.ParserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.ParseProgram(src)
		if err != nil {
			var perr *parser.ParseError
			if !errors.As(err, &perr) {
				t.Fatalf("non-ParseError failure %T: %v", err, err)
			}
			if perr.Line < 1 || perr.Col < 0 {
				t.Fatalf("bad error position %d:%d for %q", perr.Line, perr.Col, src)
			}
			return
		}
		// Every unit's Source is the unit's own lines of the input.
		if err := sourcesInOrder(src, prog); err != nil {
			t.Fatalf("%v\ninput: %q", err, src)
		}
		if err := prog.Check(); err != nil {
			t.Fatalf("accepted program fails Check: %v\ninput: %q", err, src)
		}
		// Accepted input must round-trip through the printer and parse
		// again (the printer's output is the IR's canonical form).
		rendered := prog.Fortran()
		if _, err := parser.ParseProgram(rendered); err != nil {
			t.Fatalf("accepted program fails to re-parse: %v\ninput: %q\nrendered:\n%s", err, src, rendered)
		}
	})
}
