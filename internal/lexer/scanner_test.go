package lexer_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"polaris/internal/lexer"
)

// statements renders what Scanner.Next yields for src, one statement
// per element, with line numbers on the NEWLINE and EOF tokens.
func statements(t *testing.T, src string) []string {
	t.Helper()
	var out []string
	for sc := lexer.NewScanner(src); ; {
		toks, err := sc.Next()
		if err != nil {
			t.Fatalf("Next on %q: %v", src, err)
		}
		var parts []string
		for _, tok := range toks {
			switch tok.Kind {
			case lexer.NEWLINE, lexer.EOF:
				parts = append(parts, tok.String()+"@"+string(rune('0'+tok.Line)))
			default:
				parts = append(parts, tok.Text)
			}
		}
		out = append(out, strings.Join(parts, " "))
		if toks[len(toks)-1].Kind == lexer.EOF {
			if again, err := sc.Next(); err != nil || len(again) != 1 || again[0].Kind != lexer.EOF {
				t.Errorf("Next after the EOF of %q: %v, %v", src, again, err)
			}
			return out
		}
	}
}

// functionNames is the parser's FUNCTION pre-scan over any token
// source: every IDENT that directly follows an IDENT FUNCTION.
func functionNames(names map[string]bool, toks []lexer.Token) {
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].Kind == lexer.IDENT && toks[i].Text == "FUNCTION" && toks[i+1].Kind == lexer.IDENT {
			names[toks[i+1].Text] = true
		}
	}
}

func TestScannerStatements(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      []string
	}{
		{"one statement per line, EOF alone",
			"      X = 1\n      Y = 2\n",
			[]string{"X = 1 <nl>@1", "Y = 2 <nl>@2", "<eof>@3"}},
		{"no newline at the end of the source",
			"      X = 1",
			[]string{"X = 1 <nl>@1", "<eof>@1"}},
		{"continuation ending at EOF has no NEWLINE before EOF",
			"      X = 1 + &\n      2 + &",
			[]string{"X = 1 + 2 + <eof>@2"}},
		{"blank, comment and C-leading lines inside a continuation",
			"      X = 1 + &\n\n! note\n   ! indented note\nC + &\n* 2\n      Y = 3\n",
			[]string{"X = 1 + C + * 2 <nl>@6", "Y = 3 <nl>@7", "<eof>@8"}},
		{"column-one comments between statements",
			"C X = 0\nc X = 0\n* X = 0\n! X = 0\n      X = 1\n",
			[]string{"X = 1 <nl>@5", "<eof>@6"}},
		{"trailing comments, also after the continuation mark's line",
			"      X = 1 ! one\n      Y = 2 + & ! more\n      3 ! three\n",
			[]string{"X = 1 <nl>@1", "Y = 2 + 3 <nl>@3", "<eof>@4"}},
		{"CRLF line ends",
			"      X = 1 + &\r\n      2\r\n      Y = 3\r\n",
			[]string{"X = 1 + 2 <nl>@2", "Y = 3 <nl>@3", "<eof>@4"}},
		{"a line that is only the continuation mark",
			"      X = 1 &\n      &\n      + 2\n",
			[]string{"X = 1 + 2 <nl>@3", "<eof>@4"}},
		{"a label opens a statement, not a continuation line",
			" 10   X = 5 + &\n 20   7\n",
			[]string{"10 X = 5 + 20 7 <nl>@2", "<eof>@3"}},
	} {
		if got := statements(t, c.src); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestNextContainingFindsEveryFunction: the pre-scan that tokenizes
// only statements spelling FUNCTION finds exactly the names a scan of
// the whole token stream finds, including where the spelling is in
// lower case, the name is on the next line of a continuation, the
// header sits behind a C in column one of a continuation, and where
// the word is only part of an identifier or a comment.
func TestNextContainingFindsEveryFunction(t *testing.T) {
	inputs := corpus()
	for i, src := range []string{
		"      real function f(x)\n      f = x\n      end\n",
		"      REAL FUNCTION &\n     F(X)\n      F = X\n      END\n",
		"      REAL &\n      FUNCTION &\n\n     F(X)\n      F = X\n      END\n",
		"      REAL FUNC&\n     TION F(X)\n",
		"      X = 1 + &\nC function h\n",
		"C function h\n      X = MYFUNCTION G ! function k\n",
		"      FUNCTION F(X)\n      END\n      FuNcTiOn G(X)\n      END\n      FUNCTION &",
		"      X = FUNCTION\n      FUNCTION = 1\n      FUNCTION FUNCTION FUNCTION\n",
	} {
		inputs = append(inputs, input{"extra/" + string(rune('0'+i)), src})
	}
	found := 0
	for _, in := range inputs {
		whole, err := lexer.Lex(in.src)
		if err != nil {
			continue
		}
		want, got := map[string]bool{}, map[string]bool{}
		functionNames(want, whole)
		tokenized := 0
		for sc := lexer.NewScanner(in.src); ; {
			toks, err := sc.NextContaining("FUNCTION")
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			functionNames(got, toks)
			tokenized += len(toks)
			if toks[len(toks)-1].Kind == lexer.EOF {
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pre-scan found %v, the whole stream has %v", in.name, keys(got), keys(want))
		}
		if strings.HasPrefix(in.name, "mega10k") && tokenized*20 > len(whole) {
			t.Errorf("%s: pre-scan tokenized %d of %d tokens", in.name, tokenized, len(whole))
		}
		found += len(want)
	}
	if found < 10 {
		t.Errorf("only %d function names in the whole corpus", found)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
