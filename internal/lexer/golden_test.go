package lexer_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/lexer"
	"polaris/internal/suite"
)

var update = flag.Bool("update", false, "rewrite testdata/tokens.golden from this build's Lex")

type input struct{ name, src string }

// corpus is what the goldens cover: the 16 suite programs, mega10k as
// generated and lower-cased, and the parser's fuzz seeds.
func corpus() []input {
	var in []input
	for _, p := range suite.All() {
		in = append(in, input{"suite/" + p.Name, p.Source})
	}
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega10k" {
			src := spec.Generate().Source
			in = append(in, input{spec.Name, src}, input{spec.Name + "/lower", strings.ToLower(src)})
		}
	}
	for i, s := range fuzzgen.ParserSeeds {
		in = append(in, input{fmt.Sprintf("seed/%d", i), s})
	}
	return in
}

// tokenDigest is one golden line's value: the SHA-256 of every token's
// kind, text, line and column and the token count, or the error.
func tokenDigest(src string) string {
	toks, err := lexer.Lex(src)
	var lerr *lexer.Error
	if errors.As(err, &lerr) {
		return fmt.Sprintf("error: %d:%d %s", lerr.Line, lerr.Col, lerr.Msg)
	} else if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	for _, t := range toks {
		fmt.Fprintf(h, "%d %q %d %d\n", t.Kind, t.Text, t.Line, t.Col)
	}
	return fmt.Sprintf("%x %d tokens", h.Sum(nil), len(toks))
}

// TestTokenStreamGolden compares Lex with the Lex it replaced: the
// golden file was written by the whole-source lexer of the commit
// before the Scanner (run there with -update), so every token of the
// corpus, with its position, is checked against code that shares
// nothing with the code under test.
func TestTokenStreamGolden(t *testing.T) {
	const path = "testdata/tokens.golden"
	var got strings.Builder
	for _, in := range corpus() {
		fmt.Fprintf(&got, "%s\t%s\n", in.name, tokenDigest(in.src))
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
