package parser_test

import (
	"errors"
	"strings"
	"testing"

	"polaris/internal/parser"
)

// TestParseErrorPositions pins the Line/Col contract: errors point at
// the offending token (1-based columns), with Col 0 reserved for
// failures at a line or file boundary where no single column applies
// (newline and EOF tokens). The cases cover mid-statement errors,
// line-end errors, an EOF error, and a declaration error.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		line, col int
		msgPart   string
	}{
		{
			// Mid-statement: the stray second bound where "," belongs.
			name: "do-missing-comma",
			src:  "      PROGRAM P\n      DO I = 1 10\n      END DO\n      END\n",
			line: 2, col: 16, msgPart: `expected ","`,
		},
		{
			// Mid-statement: THEN where the closing paren should be.
			name: "if-unclosed-paren",
			src:  "      PROGRAM P\n      IF (X .GT. 1 THEN\n      END IF\n      END\n",
			line: 2, col: 20, msgPart: `expected ")"`,
		},
		{
			// Mid-statement: "=" inside an unclosed subscript.
			name: "subscript-unclosed",
			src:  "      PROGRAM P\n      A(1 = 2\n      END\n",
			line: 2, col: 11, msgPart: `expected ")"`,
		},
		{
			// Mid-statement: a number where a declared name must be.
			name: "declaration-bad-name",
			src:  "      PROGRAM P\n      REAL 5X\n      END\n",
			line: 2, col: 12, msgPart: "expected name",
		},
		{
			// Line end: binary operator with no right operand. The
			// offending token is the newline itself, so Col is 0.
			name: "dangling-operator",
			src:  "      PROGRAM P\n      X = 1 +\n      END\n",
			line: 2, col: 0, msgPart: "unexpected",
		},
		{
			// EOF: unit never closed; the error lands on the line
			// holding <eof>, past the last source line.
			name: "missing-end-at-eof",
			src:  "      PROGRAM P\n      X = 1\n",
			line: 3, col: 0, msgPart: "expected END",
		},
		{
			// EOF inside an expression statement.
			name: "mid-expression-eof",
			src:  "      PROGRAM P\n      X = (1 + 2\n      END\n",
			line: 2, col: 0, msgPart: `expected ")"`,
		},
		{
			// Semantic: a duplicate unit is reported at its header line.
			name: "duplicate-unit",
			src:  "      PROGRAM P\n      END\n\n      SUBROUTINE P\n      END\n",
			line: 4, col: 0, msgPart: "duplicate program unit P",
		},
		{
			// Semantic: a consistency error carries its unit's first line.
			name: "consistency-in-second-unit",
			src:  "      PROGRAM P\n      END\n      SUBROUTINE S\n      A() = 0\n      END\n",
			line: 3, col: 0, msgPart: "subscripted but declared scalar",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parser.ParseProgram(tc.src)
			if err == nil {
				t.Fatal("parse unexpectedly succeeded")
			}
			var pe *parser.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *parser.ParseError: %v", err, err)
			}
			if pe.Line != tc.line || pe.Col != tc.col {
				t.Errorf("position %d:%d, want %d:%d (%s)", pe.Line, pe.Col, tc.line, tc.col, pe.Msg)
			}
			if !strings.Contains(pe.Msg, tc.msgPart) {
				t.Errorf("message %q does not contain %q", pe.Msg, tc.msgPart)
			}
		})
	}
}

// Semantic (consistency) failures must cross the boundary as
// ParseError too, never as a raw ir error — the invariant the
// FuzzParseProgram target enforces at scale.
func TestParseErrorFromConsistencyCheck(t *testing.T) {
	srcs := []string{
		// Scalar used with subscripts.
		"      SUBROUTINE S\n      A() = 0\n      END\n",
		// Duplicate unit name (Program.Add panics internally on this).
		"      PROGRAM P\n      END\n      PROGRAM P\n      END\n",
	}
	for _, src := range srcs {
		_, err := parser.ParseProgram(src)
		if err == nil {
			t.Fatalf("parse unexpectedly succeeded for %q", src)
		}
		var pe *parser.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("error is %T, want *parser.ParseError: %v", err, err)
		}
		if pe.Line < 1 {
			t.Errorf("bad line %d for %q", pe.Line, src)
		}
	}
}
