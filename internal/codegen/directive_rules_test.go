package codegen

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// lastValueSrc is a loop whose private T is live after it: T is
// LASTPRIVATE, and only that.
const lastValueSrc = `      PROGRAM LASTV
      REAL A(100), T, RESULT
      INTEGER I
      DO I = 1, 100
        T = I*2.0
        A(I) = T
      END DO
      RESULT = T + A(5)
      END
`

var (
	ompDirective = regexp.MustCompile(`^C\$OMP PARALLEL DO((?: (?:PRIVATE|LASTPRIVATE|FIRSTPRIVATE|REDUCTION)\([^)]*\))*)$`)
	ompClause    = regexp.MustCompile(` (PRIVATE|LASTPRIVATE|FIRSTPRIVATE|REDUCTION)\(([^)]*)\)`)
)

// clauseViolations checks one emitted directive line, and the DO line
// after it, against OpenMP's data-sharing rules: a name appears in at
// most one clause, but for FIRSTPRIVATE plus LASTPRIVATE; a reduction
// target is not private; and the loop's own index is in no clause.
func clauseViolations(line, do string) []string {
	m := ompDirective.FindStringSubmatch(line)
	if m == nil {
		return []string{"unreadable directive"}
	}
	var bad []string
	clauses := map[string][]string{} // name → the clauses that list it
	for _, c := range ompClause.FindAllStringSubmatch(m[1], -1) {
		names := c[2]
		if c[1] == "REDUCTION" {
			_, names, _ = strings.Cut(names, ":")
		}
		for _, name := range strings.Split(names, ",") {
			clauses[name] = append(clauses[name], c[1])
		}
	}
	if index, _, ok := strings.Cut(strings.TrimPrefix(strings.TrimSpace(do), "DO "), " ="); !ok {
		bad = append(bad, "no DO line after the directive")
	} else if clauses[index] != nil {
		bad = append(bad, fmt.Sprintf("the loop's index %s is %v", index, clauses[index]))
	}
	for name, in := range clauses {
		switch {
		case len(in) == 2 && strings.Join(in, "+") == "FIRSTPRIVATE+LASTPRIVATE":
		case len(in) > 1 && strings.Contains(strings.Join(in, " "), "REDUCTION"):
			bad = append(bad, fmt.Sprintf("reduction target %s is also %v", name, in))
		case len(in) > 1:
			bad = append(bad, fmt.Sprintf("%s is in %v", name, in))
		}
	}
	return bad
}

// TestDirectiveClauseRules reads every OpenMP directive the compiler
// emits for the 16 suite programs, mega10k, fuzzgen seeds 1–300 and a
// loop with a live-out private, and holds each to the data-sharing
// rules clauseViolations checks. When a live-out private scalar was
// printed PRIVATE(T) LASTPRIVATE(T), 240 of these 3 814 directive lines
// broke the first rule.
func TestDirectiveClauseRules(t *testing.T) {
	src := map[string]string{"lastvalue": lastValueSrc}
	for _, p := range suite.All() {
		src[p.Name] = p.Source
	}
	src["mega10k"] = fuzzgen.MegaCorpus()[0].Generate().Source
	for seed := uint64(1); seed <= 300; seed++ {
		src[fmt.Sprintf("fuzzgen-%03d", seed)] = fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source
	}
	directives := 0
	for name, s := range src {
		res, err := core.Compile(parser.MustParse(s), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(EmitFortran(res), "\n")
		for i, line := range lines[:len(lines)-1] {
			if !strings.HasPrefix(line, "C$OMP") {
				continue
			}
			directives++
			for _, v := range clauseViolations(line, lines[i+1]) {
				t.Errorf("%s: %s: %s", name, line, v)
			}
		}
		if name == "lastvalue" && !strings.Contains(EmitFortran(res), "C$OMP PARALLEL DO LASTPRIVATE(T)\n") {
			t.Errorf("lastvalue: T is not LASTPRIVATE alone:\n%s", EmitFortran(res))
		}
	}
	t.Logf("%d programs, %d directive lines", len(src), directives)
	if directives < 3000 {
		t.Errorf("%d directive lines read, fewer than the 3 814 these programs emit", directives)
	}
}
