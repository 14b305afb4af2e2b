package lexer

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"polaris/internal/fuzzgen"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) string {
	var parts []string
	for _, t := range toks {
		if t.Kind == NEWLINE {
			parts = append(parts, "<nl>")
		} else if t.Kind == EOF {
			parts = append(parts, "<eof>")
		} else {
			parts = append(parts, t.Text)
		}
	}
	return strings.Join(parts, " ")
}

func lex(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	return toks
}

func TestBasicTokens(t *testing.T) {
	toks := lex(t, "      X = a + 2*B(i, 3)\n")
	want := "X = A + 2 * B ( I , 3 ) <nl> <eof>"
	if got := texts(toks); got != want {
		t.Errorf("tokens = %q, want %q", got, want)
	}
}

func TestCaseNormalization(t *testing.T) {
	toks := lex(t, "      do i = 1, n\n")
	if toks[0].Text != "DO" || toks[1].Text != "I" || toks[5].Text != "N" {
		t.Errorf("case not normalized: %s", texts(toks))
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		text string
	}{
		{"      X = 42\n", INT, "42"},
		{"      X = 4.25\n", REAL, "4.25"},
		{"      X = 1E6\n", REAL, "1E6"},
		{"      X = 1.5e-3\n", REAL, "1.5E-3"},
		{"      X = 2.5D0\n", REAL, "2.5E0"},
		{"      X = .TRUE.\n", LOGICAL, ".TRUE."},
	}
	for _, c := range cases {
		toks := lex(t, c.src)
		found := false
		for _, tok := range toks {
			if tok.Kind == c.kind && tok.Text == c.text {
				found = true
			}
		}
		if !found {
			t.Errorf("%q: token (%v,%q) missing in %s", c.src, c.kind, c.text, texts(toks))
		}
	}
}

func TestDotOperators(t *testing.T) {
	toks := lex(t, "      IF (X .LT. 2.5 .AND. Y .GE. 1.) Z = 1\n")
	joined := texts(toks)
	for _, want := range []string{".LT.", ".AND.", ".GE.", "2.5", "1."} {
		if !strings.Contains(joined, strings.TrimSuffix(want, "")) {
			t.Errorf("missing %q in %q", want, joined)
		}
	}
	// "2.5 .AND." must not fuse: 2.5 then .AND.
	if strings.Contains(joined, "2.5.") {
		t.Errorf("real literal fused with dot-op: %q", joined)
	}
}

func TestModernRelationalSpellings(t *testing.T) {
	toks := lex(t, "      IF (a < b .OR. c >= d .OR. e == f .OR. g /= h) x = 1\n")
	joined := texts(toks)
	for _, want := range []string{".LT.", ".GE.", ".EQ.", ".NE."} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in %q", want, joined)
		}
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := "C full line comment\n* another\n! bang\n      X = 1 ! trailing\n"
	toks := lex(t, src)
	if got := texts(toks); got != "X = 1 <nl> <eof>" {
		t.Errorf("comments leaked: %q", got)
	}
}

func TestContinuation(t *testing.T) {
	toks := lex(t, "      X = 1 + &\n          2\n")
	if got := texts(toks); got != "X = 1 + 2 <nl> <eof>" {
		t.Errorf("continuation wrong: %q", got)
	}
}

func TestLabels(t *testing.T) {
	toks := lex(t, " 10   CONTINUE\n")
	if toks[0].Kind != LABEL || toks[0].Text != "10" {
		t.Errorf("label not recognized: %s", texts(toks))
	}
	// An integer mid-line is not a label.
	toks2 := lex(t, "      X = 10\n")
	for _, tok := range toks2 {
		if tok.Kind == LABEL {
			t.Errorf("mid-line integer lexed as label")
		}
	}
}

func TestPowerAndStar(t *testing.T) {
	toks := lex(t, "      X = A ** 2 * B\n")
	joined := texts(toks)
	if !strings.Contains(joined, "** 2 * B") {
		t.Errorf("power operator wrong: %q", joined)
	}
}

func TestLineNumbers(t *testing.T) {
	toks := lex(t, "      X = 1\n      Y = 2\n")
	var yLine int
	for _, tok := range toks {
		if tok.Text == "Y" {
			yLine = int(tok.Line)
		}
	}
	if yLine != 2 {
		t.Errorf("Y on line %d, want 2", yLine)
	}
}

// TestColumnSaturates: Col is 16 bits wide and pins at 65535 on a line
// longer than that, it does not wrap.
func TestColumnSaturates(t *testing.T) {
	toks := lex(t, strings.Repeat(" ", 70000)+"X = 1\n")
	if toks[0].Text != "X" || toks[0].Col != 65535 || toks[0].Line != 1 {
		t.Errorf("first token %+v, want X at 1:65535", toks[0])
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"      X = 'str'\n", "      X = .BOGUS. 1\n", "      X = #\n"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestEmptyAndBlankLines(t *testing.T) {
	toks := lex(t, "\n\n      X = 1\n\n")
	if got := texts(toks); got != "X = 1 <nl> <eof>" {
		t.Errorf("blank lines mishandled: %q", got)
	}
	if len(kinds(toks)) != 5 {
		t.Errorf("token count = %d", len(toks))
	}
}

func mega10k(t *testing.T) string {
	t.Helper()
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega10k" {
			src := spec.Generate().Source
			if n := strings.Count(src, "\n"); n < 9000 {
				t.Fatalf("mega10k has %d lines", n)
			}
			return src
		}
	}
	t.Fatal("no mega10k in the corpus")
	return ""
}

// spellings counts the distinct texts of the tokens that carry one of
// their own: what the intern table must hold.
func spellings(toks []Token) int {
	distinct := map[string]bool{}
	for _, tok := range toks {
		if tok.Kind == IDENT || tok.Kind == INT || tok.Kind == REAL || tok.Kind == LABEL {
			distinct[tok.Text] = true
		}
	}
	return len(distinct)
}

// scanSlack covers what a scan allocates besides spellings: the
// Scanner, the doublings of its statement and spelling buffers and of
// the intern table.
const scanSlack = 24

// TestLexAllocationBudget holds Lex to its contract on a 10k-line
// program: one allocation for the token slab, one per distinct
// spelling, and a small constant — never one per line or per token.
// Lower-casing the source, which used to cost one string per
// identifier token (34 105 of them), changes nothing. No token's text
// may point into the source.
func TestLexAllocationBudget(t *testing.T) {
	src := mega10k(t)
	if size := unsafe.Sizeof(Token{}); size != 24 {
		t.Errorf("Token is %d bytes, want 24: the slab is the largest allocation of Lex", size)
	}
	for _, c := range []struct{ name, src string }{{"as generated", src}, {"lower-cased", strings.ToLower(src)}} {
		toks := lex(t, c.src)
		if cap(toks) > len(toks)*5/4 {
			t.Errorf("%s: slab holds %d tokens for %d lexed: the size estimate over-runs by more than a quarter", c.name, cap(toks), len(toks))
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(c.src)))
		for _, tok := range toks {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(tok.Text))); tok.Text != "" && p >= lo && p < lo+uintptr(len(c.src)) {
				t.Fatalf("%s: text of %q at %d:%d is a slice of the source", c.name, tok.Text, tok.Line, tok.Col)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Lex(c.src); err != nil {
				t.Fatal(err)
			}
		})
		distinct := spellings(toks)
		if budget := float64(1 + distinct + scanSlack); allocs > budget {
			t.Errorf("%s: Lex allocates %.0f times on %d tokens with %d distinct spellings; budget %.0f",
				c.name, allocs, len(toks), distinct, budget)
		}
	}
}

// TestScannerAllocationBudget: read a statement at a time, the same
// program costs its spellings and the slack, with no slab, and reading
// it four times over costs not one allocation more: token storage does
// not depend on the number of lines.
func TestScannerAllocationBudget(t *testing.T) {
	src := mega10k(t)
	scan := func(src string) float64 {
		return testing.AllocsPerRun(5, func() {
			for sc := NewScanner(src); ; {
				toks, err := sc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if toks[len(toks)-1].Kind == EOF {
					return
				}
			}
		})
	}
	once := scan(src)
	if budget := float64(spellings(lex(t, src)) + scanSlack); once > budget {
		t.Errorf("scanning mega10k allocates %.0f times, budget %.0f", once, budget)
	}
	if four := scan(strings.Repeat(src, 4)); four != once {
		t.Errorf("scanning mega10k four times over allocates %.0f times, once %.0f", four, once)
	}
}

// TestScannerReset: Reset puts a scanner at the start of another source
// with its intern table emptied and its slots kept. The scanner then
// yields what a new scanner over that source yields, whatever it read
// before, and reads a source it already has the slots for without
// growing them; Reset("") leaves no spelling and no source behind.
func TestScannerReset(t *testing.T) {
	src := mega10k(t)
	const small = "      x = y + 1.5d0\n   10 CONTINUE\n"
	stream := func(sc *Scanner) []Token {
		var out []Token
		for {
			toks, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, toks...)
			if toks[len(toks)-1].Kind == EOF {
				return out
			}
		}
	}
	sc := NewScanner(src)
	want := stream(sc)
	slots := sc.words.slots
	sc.Reset(small)
	if got, want := stream(sc), lex(t, small); !reflect.DeepEqual(got, want) {
		t.Errorf("after Reset(%q): %v, a new scanner reads %v", small, got, want)
	}
	sc.Reset(src)
	if got := stream(sc); !reflect.DeepEqual(got, want) {
		t.Errorf("scanning mega10k again after Reset reads another token stream")
	}
	if len(sc.words.slots) != len(slots) || &sc.words.slots[0] != &slots[0] {
		t.Errorf("scanning mega10k again after Reset grew the intern table from %d slots to %d", len(slots), len(sc.words.slots))
	}
	sc.Reset("")
	for i, sp := range sc.words.slots {
		if sp != (spelling{}) {
			t.Fatalf("after Reset(\"\") slot %d holds %q", i, sp.text)
		}
	}
	if sc.words.used != 0 || sc.rest != "" || sc.toks != nil {
		t.Errorf("after Reset(\"\") the scanner holds %d spellings, %d bytes of source and %d token slots", sc.words.used, len(sc.rest), cap(sc.toks))
	}
}
