// Package lexer tokenizes the Fortran 77 subset accepted by the Polaris
// reproduction. Layout is liberal ("free-form-lite"): statement fields
// may start in any column, one statement per line, with '&' at end of
// line joining the next line. Comment lines begin with C, c, * or ! in
// column one; '!' also starts a trailing comment. Input is
// case-insensitive; the lexer upper-cases identifiers and keywords.
package lexer

import (
	"fmt"
	"math"
	"strings"
)

// Kind classifies tokens.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	NEWLINE
	IDENT   // names and keywords, upper-cased
	INT     // integer literal
	REAL    // real literal
	LOGICAL // .TRUE. / .FALSE.
	OP      // operator or punctuation: + - * / ** ( ) , = : .LT. etc.
	LABEL   // statement label (leading integer on a line)
)

// Token is one lexical unit, packed into 24 bytes: the slab of them is
// the largest single allocation of a parse.
type Token struct {
	Text string
	Line int32
	// Col is the 1-based source column of the token's first
	// character (0 for synthesized NEWLINE/EOF tokens). It only feeds
	// error positions and saturates at 65535.
	Col  uint16
	Kind Kind
}

func newToken(kind Kind, text string, line, col int) Token {
	if col > math.MaxUint16 {
		col = math.MaxUint16
	}
	return Token{Text: text, Line: int32(line), Col: uint16(col), Kind: kind}
}

func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "<eof>"
	case NEWLINE:
		return "<nl>"
	default:
		return t.Text
	}
}

// Error is a lexical error with a source position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// dotOps maps the words recognized between dots to their token text.
var dotOps = map[string]string{
	"LT": ".LT.", "LE": ".LE.", "GT": ".GT.", "GE": ".GE.", "EQ": ".EQ.", "NE": ".NE.",
	"AND": ".AND.", "OR": ".OR.", "NOT": ".NOT.", "TRUE": ".TRUE.", "FALSE": ".FALSE.",
}

// Lex tokenizes src. Every source line produces its tokens followed by
// a NEWLINE token; continuation lines ('&' at end) suppress the
// NEWLINE. The token stream always ends with EOF.
//
// All tokens live in one slab sized up front from the source, and token
// text is a slice of src wherever the source is already in canonical
// (upper-case) form, so lexing allocates the slab plus one string per
// identifier or literal that needs case-folding.
func Lex(src string) ([]Token, error) {
	toks := make([]Token, 0, slabSize(src))
	cont := false
	line := 0
	for rest, more := src, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		line++
		// Comment lines.
		trimmedFull := strings.TrimRight(raw, " \t\r")
		if trimmedFull == "" {
			continue
		}
		if c := raw[0]; c == 'C' || c == 'c' || c == '*' || c == '!' {
			// A full-line comment only if it is not a statement
			// starting with one of those letters: Fortran fixed form
			// says column 1; we honor that.
			if !cont {
				continue
			}
		}
		s := trimmedFull
		// Trailing '!' comment (not inside our subset's strings; we
		// support no string literals in executable code).
		if i := strings.IndexByte(s, '!'); i >= 0 {
			s = strings.TrimRight(s[:i], " \t")
			if s == "" {
				continue
			}
		}
		contNext := false
		if strings.HasSuffix(s, "&") {
			contNext = true
			s = strings.TrimRight(s[:len(s)-1], " \t")
		}
		var err error
		if toks, err = lexLine(toks, s, line, cont); err != nil {
			return nil, err
		}
		if !contNext {
			toks = append(toks, newToken(NEWLINE, "", line, 0))
		}
		cont = contNext
	}
	toks = append(toks, newToken(EOF, "", line, 0))
	return toks, nil
}

// slabSize sizes the slab: a count of the places a token can start,
// which is every run of word characters and every punctuation byte,
// plus a NEWLINE per line and the EOF. Multi-byte operators and
// literals (**, .LT., 1.5E+3) and comment text are counted more than
// once, so the count runs high, by about 5% on the megaprograms;
// it runs low only where a letter follows a digit run directly (3X is
// two tokens), which no accepted program does, and append covers it.
func slabSize(src string) int {
	n := 2 // the last line's NEWLINE and EOF
	inWord := false
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case isAlpha(c) || isDigit(c) || c == '_':
			if !inWord {
				n++
			}
			inWord = true
		case c == ' ' || c == '\t' || c == '\r':
			inWord = false
		default: // punctuation, or '\n' for the line's NEWLINE
			n++
			inWord = false
		}
	}
	return n
}

// lexLine appends the tokens of one statement line to toks, the
// caller's slab, and returns it.
func lexLine(toks []Token, s string, line int, cont bool) ([]Token, error) {
	i := 0
	n := len(s)
	skip := func() {
		for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r') {
			i++
		}
	}
	skip()
	// Statement label: a leading integer followed by more tokens.
	if !cont && i < n && s[i] >= '0' && s[i] <= '9' {
		j := i
		for j < n && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j < n && (s[j] == ' ' || s[j] == '\t') {
			rest := strings.TrimSpace(s[j:])
			if rest != "" && !isExprStart(rest) {
				toks = append(toks, newToken(LABEL, s[i:j], line, i+1))
				i = j
			}
		}
	}
	for {
		skip()
		if i >= n {
			break
		}
		c := s[i]
		switch {
		case isAlpha(c):
			j := i
			for j < n && (isAlpha(s[j]) || isDigit(s[j]) || s[j] == '_') {
				j++
			}
			toks = append(toks, newToken(IDENT, strings.ToUpper(s[i:j]), line, i+1))
			i = j
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(s[i+1]) && !startsDotOp(s[i:])):
			tok, j, err := lexNumber(s, i, line)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = j
		case c == '.':
			// .OP. or .TRUE./.FALSE.
			j := i + 1
			for j < n && isAlpha(s[j]) {
				j++
			}
			if j < n && s[j] == '.' {
				word := strings.ToUpper(s[i+1 : j])
				if text, ok := dotOps[word]; ok {
					kind := OP
					if word == "TRUE" || word == "FALSE" {
						kind = LOGICAL
					}
					toks = append(toks, newToken(kind, text, line, i+1))
					i = j + 1
					continue
				}
			}
			return nil, &Error{Line: line, Col: i + 1, Msg: "unexpected '.'"}
		case c == '*':
			if i+1 < n && s[i+1] == '*' {
				toks = append(toks, newToken(OP, "**", line, i+1))
				i += 2
			} else {
				toks = append(toks, newToken(OP, "*", line, i+1))
				i++
			}
		case c == '<' || c == '>':
			if i+1 < n && s[i+1] == '=' {
				toks = append(toks, newToken(OP, map[byte]string{'<': ".LE.", '>': ".GE."}[c], line, i+1))
				i += 2
			} else {
				toks = append(toks, newToken(OP, map[byte]string{'<': ".LT.", '>': ".GT."}[c], line, i+1))
				i++
			}
		case c == '=':
			if i+1 < n && s[i+1] == '=' {
				toks = append(toks, newToken(OP, ".EQ.", line, i+1))
				i += 2
			} else {
				toks = append(toks, newToken(OP, "=", line, i+1))
				i++
			}
		case c == '/':
			if i+1 < n && s[i+1] == '=' {
				toks = append(toks, newToken(OP, ".NE.", line, i+1))
				i += 2
			} else {
				toks = append(toks, newToken(OP, "/", line, i+1))
				i++
			}
		case strings.IndexByte("+-(),:", c) >= 0:
			toks = append(toks, newToken(OP, s[i:i+1], line, i+1))
			i++
		default:
			return nil, &Error{Line: line, Col: i + 1, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	return toks, nil
}

func lexNumber(s string, i, line int) (Token, int, error) {
	n := len(s)
	j := i
	isReal := false
	for j < n && isDigit(s[j]) {
		j++
	}
	if j < n && s[j] == '.' && !startsDotOp(s[j:]) {
		isReal = true
		j++
		for j < n && isDigit(s[j]) {
			j++
		}
	}
	if j < n && (s[j] == 'E' || s[j] == 'e' || s[j] == 'D' || s[j] == 'd') {
		k := j + 1
		if k < n && (s[k] == '+' || s[k] == '-') {
			k++
		}
		if k < n && isDigit(s[k]) {
			isReal = true
			j = k
			for j < n && isDigit(s[j]) {
				j++
			}
		}
	}
	text := strings.ToUpper(strings.Replace(s[i:j], "d", "E", 1))
	text = strings.Replace(text, "D", "E", 1)
	kind := INT
	if isReal {
		kind = REAL
	}
	return newToken(kind, text, line, i+1), j, nil
}

// startsDotOp reports whether s (starting with '.') begins a .XX.
// operator like .LT. rather than a real-literal fraction.
func startsDotOp(s string) bool {
	if len(s) < 3 || s[0] != '.' {
		return false
	}
	j := 1
	for j < len(s) && isAlpha(s[j]) {
		j++
	}
	if j == 1 || j >= len(s) || s[j] != '.' {
		return false
	}
	_, ok := dotOps[strings.ToUpper(s[1:j])]
	return ok
}

// isExprStart reports whether rest looks like a continuation of an
// expression (used to disambiguate labels from plain integers).
func isExprStart(rest string) bool {
	c := rest[0]
	return strings.IndexByte("+-*/=,)", c) >= 0
}

func isAlpha(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
