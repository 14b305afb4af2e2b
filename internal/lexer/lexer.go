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

// dotOps are the operators and logical constants spelled between dots.
var dotOps = [...]string{".LT.", ".LE.", ".GT.", ".GE.", ".EQ.", ".NE.",
	".AND.", ".OR.", ".NOT.", ".TRUE.", ".FALSE."}

// dotOpAt returns the one of dotOps that s, which starts at a '.',
// begins with in either letter case, or "": a real literal's fraction
// or exponent begins with none.
func dotOpAt(s string) string {
	if len(s) < 4 || !isAlpha(s[1]) {
		return ""
	}
	for _, op := range dotOps {
		if len(s) >= len(op) && strings.EqualFold(s[:len(op)], op) {
			return op
		}
	}
	return ""
}

// Lex tokenizes src. Every source line produces its tokens followed by
// a NEWLINE token; continuation lines ('&' at end) suppress the
// NEWLINE. The token stream always ends with EOF.
//
// It is the loop over a Scanner that keeps every statement, in one
// slab sized up front from the source, for callers that want the whole
// stream at once; the parser reads the Scanner directly.
func Lex(src string) ([]Token, error) {
	toks := make([]Token, 0, slabSize(src))
	for sc := NewScanner(src); ; {
		stmt, err := sc.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, stmt...)
		if stmt[len(stmt)-1].Kind == EOF {
			return toks, nil
		}
	}
}

// Scanner tokenizes a source one statement at a time, into a buffer it
// reuses, so scanning costs no token storage that grows with the
// source. Identifier, literal and label text comes from the scanner's
// own intern table (one string per distinct canonical spelling) and
// operator text from constants: no token aliases the source, and
// whatever is built from token text keeps alive the spellings it uses
// and nothing else.
type Scanner struct {
	cursor
	toks  []Token
	buf   []byte // one spelling being canonicalized
	words interner
}

// cursor is a position between two source lines.
type cursor struct {
	rest string // the lines not yet read
	more bool   // false once the last line has been read
	line int    // lines read so far
}

// NewScanner returns a Scanner at the start of src.
func NewScanner(src string) *Scanner {
	return &Scanner{cursor: cursor{rest: src, more: true}}
}

// Reset puts the scanner at the start of src, as NewScanner(src) does,
// and empties its intern table but keeps the table's slots, so a
// scanner kept between sources grows its table once. The statement
// buffer is dropped, not kept: it is sized by the longest statement a
// source has, and a buffer kept from one source would make what
// scanning the next allocates depend on which source came before.
// Reset("") leaves the scanner holding no string of the source it
// scanned, nor any spelling of it.
func (s *Scanner) Reset(src string) {
	clear(s.words.slots)
	*s = Scanner{cursor: cursor{rest: src, more: true}, words: interner{slots: s.words.slots}}
}

// Next returns the tokens of the next statement: a line and the lines
// joined to it by a closing '&', ended by its NEWLINE. After the last
// statement it returns a lone EOF, except that a statement whose last
// line still closes with '&' is ended by that EOF in place of a
// NEWLINE. The slice is valid until the next call.
func (s *Scanner) Next() ([]Token, error) {
	s.toks = s.toks[:0]
	for cont := false; ; cont = true {
		text, joined, ok := s.readLine(cont)
		if !ok {
			s.toks = append(s.toks, newToken(EOF, "", s.line, 0))
			return s.toks, nil
		}
		if err := s.lexLine(text, cont); err != nil {
			return nil, err
		}
		if !joined {
			s.toks = append(s.toks, newToken(NEWLINE, "", s.line, 0))
			return s.toks, nil
		}
	}
}

// NextContaining is Next for a reader that wants only the statements
// with a line that spells word (upper-case letters) in any letter
// case: the others are passed over without being tokenized. The
// statement holding the EOF is always returned.
func (s *Scanner) NextContaining(word string) ([]Token, error) {
	for {
		start, hit := s.cursor, false
		for cont, joined := false, true; joined && !hit; cont = true {
			var text string
			var ok bool
			text, joined, ok = s.readLine(cont)
			hit = !ok || containsFold(text, word)
		}
		if hit {
			s.cursor = start
			return s.Next()
		}
	}
}

// readLine reads up to the next line that carries statement text and
// returns that text: without the trailing comment and blanks, and
// without the closing '&', which joined reports. Blank lines and
// comment lines are passed over; inside a continuation (cont) column
// one does not make a comment. ok is false at the end of the source.
func (s *Scanner) readLine(cont bool) (text string, joined, ok bool) {
	for s.more {
		var raw string
		raw, s.rest, s.more = strings.Cut(s.rest, "\n")
		s.line++
		text = strings.TrimRight(raw, " \t\r")
		if text == "" {
			continue
		}
		// Fortran fixed form says column 1; we honor that.
		if c := raw[0]; !cont && (c == 'C' || c == 'c' || c == '*' || c == '!') {
			continue
		}
		// Trailing '!' comment (the subset has no string literals).
		if i := strings.IndexByte(text, '!'); i >= 0 {
			if text = strings.TrimRight(text[:i], " \t"); text == "" {
				continue
			}
		}
		if joined = strings.HasSuffix(text, "&"); joined {
			text = strings.TrimRight(text[:len(text)-1], " \t")
		}
		return text, joined, true
	}
	return "", false, false
}

// containsFold reports whether s spells word, given in upper-case
// letters, in any letter case.
func containsFold(s, word string) bool {
	for i := 0; i+len(word) <= len(s); i++ {
		if s[i]&^0x20 == word[0] && strings.EqualFold(s[i:i+len(word)], word) {
			return true
		}
	}
	return false
}

// interner is the scanner's table of spellings: open addressing, a
// free slot has the empty string (no token text is empty).
type interner struct {
	slots []spelling
	used  int
}

type spelling struct {
	hash uint32
	text string
}

// intern returns the table's string with the bytes of b, whose hash is
// h, adding it on first sight: the only allocation a spelling costs.
func (t *interner) intern(h uint32, b []byte) string {
	if 2*t.used >= len(t.slots) {
		old := t.slots
		t.slots = make([]spelling, max(64, 2*len(old)))
		for _, sp := range old {
			if sp.text != "" {
				*t.slot(sp.hash, nil) = sp // no text matches nil: the free slot
			}
		}
	}
	sp := t.slot(h, b)
	if sp.text == "" {
		t.used++
		*sp = spelling{hash: h, text: string(b)}
	}
	return sp.text
}

// slot finds the slot that holds text, or the free slot it belongs in.
func (t *interner) slot(h uint32, text []byte) *spelling {
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if sp := &t.slots[i]; sp.text == "" || sp.hash == h && sp.text == string(text) {
			return sp
		}
	}
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

// lexLine appends the tokens of one line of statement text to the
// statement buffer.
func (sc *Scanner) lexLine(s string, cont bool) error {
	i := 0
	n := len(s)
	toks := sc.toks
	emit := func(kind Kind, text string, width int) {
		toks = append(toks, newToken(kind, text, sc.line, i+1))
		i += width
	}
	skip := func() {
		for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r') {
			i++
		}
	}
	skip()
	// Statement label: a leading integer followed by more tokens.
	if !cont && i < n && isDigit(s[i]) {
		j := i
		for j < n && isDigit(s[j]) {
			j++
		}
		if j < n && (s[j] == ' ' || s[j] == '\t') {
			rest := strings.TrimSpace(s[j:])
			if rest != "" && !isExprStart(rest) {
				emit(LABEL, sc.spell(LABEL, s[i:j]), j-i)
			}
		}
	}
	for {
		skip()
		if i >= n {
			sc.toks = toks
			return nil
		}
		c := s[i]
		switch {
		case isAlpha(c):
			j := i
			for j < n && (isAlpha(s[j]) || isDigit(s[j]) || s[j] == '_') {
				j++
			}
			emit(IDENT, sc.spell(IDENT, s[i:j]), j-i)
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(s[i+1])):
			j, kind := numberEnd(s, i)
			emit(kind, sc.spell(kind, s[i:j]), j-i)
		case c == '.':
			text := dotOpAt(s[i:])
			if text == "" {
				return &Error{Line: sc.line, Col: i + 1, Msg: "unexpected '.'"}
			}
			kind := OP
			if text == ".TRUE." || text == ".FALSE." {
				kind = LOGICAL
			}
			emit(kind, text, len(text))
		default:
			next := byte(0)
			if i+1 < n {
				next = s[i+1]
			}
			text, width := operator(c, next)
			if width == 0 {
				return &Error{Line: sc.line, Col: i + 1, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			emit(OP, text, width)
		}
	}
}

// oneByte maps a byte to the text of the token it is on its own.
var oneByte = [256]string{'+': "+", '-': "-", '(': "(", ')': ")", ',': ",", ':': ":",
	'*': "*", '=': "=", '/': "/", '<': ".LT.", '>': ".GT."}

// operator returns the token text of the operator or punctuation mark
// that starts with c, given the byte after it, and how many bytes it
// spans: none if c starts no token.
func operator(c, next byte) (text string, width int) {
	switch {
	case c == '*' && next == '*':
		return "**", 2
	case next != '=':
	case c == '<':
		return ".LE.", 2
	case c == '>':
		return ".GE.", 2
	case c == '=':
		return ".EQ.", 2
	case c == '/':
		return ".NE.", 2
	}
	if text = oneByte[c]; text != "" {
		width = 1
	}
	return text, width
}

// spell returns the canonical spelling of an identifier, literal or
// label from the intern table: letters upper-cased, and the exponent
// letter of a REAL always E.
func (sc *Scanner) spell(kind Kind, raw string) string {
	b, h := sc.buf[:0], uint32(2166136261) // FNV-1a
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c == 'D' && kind == REAL {
			c = 'E'
		}
		b, h = append(b, c), (h^uint32(c))*16777619
	}
	sc.buf = b
	return sc.words.intern(h, b)
}

// numberEnd returns where the numeric literal that starts at s[i] ends
// and whether it is an INT or a REAL.
func numberEnd(s string, i int) (int, Kind) {
	n := len(s)
	j := i
	kind := INT
	for j < n && isDigit(s[j]) {
		j++
	}
	if j < n && s[j] == '.' && dotOpAt(s[j:]) == "" {
		kind = REAL
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
			kind = REAL
			j = k
			for j < n && isDigit(s[j]) {
				j++
			}
		}
	}
	return j, kind
}

// isExprStart reports whether rest looks like a continuation of an
// expression (used to disambiguate labels from plain integers).
func isExprStart(rest string) bool {
	c := rest[0]
	return strings.IndexByte("+-*/=,)", c) >= 0
}

func isAlpha(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
