package parser

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/ir"
)

func TestParseExprBasics(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1+2*3", "1+2*3"},
		{"(1+2)*3", "(1+2)*3"},
		{"A(I,J)+B(I)", "A(I,J)+B(I)"},
		{"-X**2", "-X**2"},
		{"2**3**2", "2**3**2"},
		{"I .LT. N .AND. J .GE. 0", "I.LT.N.AND.J.GE.0"},
		{"i < n", "I.LT.N"},
		{"x >= 1.5", "X.GE.1.5"},
		{"a == b", "A.EQ.B"},
		{"a /= b", "A.NE.B"},
		{".NOT. (P .OR. Q)", ".NOT.(P.OR.Q)"},
		{"MOD(I, 2)", "MOD(I,2)"},
		{"MAX(A(I), 0.0)", "MAX(A(I),0.0)"},
		{"1.5E-3", "0.0015"},
		{"X - Y - Z", "X-Y-Z"},
		{"X / Y / Z", "X/Y/Z"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.src, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("ParseExpr(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, src := range []string{"1 +", "A(", "(1+2", "X 3", ".FOO.", "X # 1"} {
		_, err := ParseExpr(src)
		if err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", src)
			continue
		}
		// Lexical failures included: one error type at the boundary.
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("ParseExpr(%q) returned %T (%v), want *ParseError", src, err, err)
		}
	}
	// A lexical failure keeps its position and message.
	_, err := ParseExpr("X # 1")
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 1 || pe.Col != 3 || pe.Msg != `unexpected character '#'` {
		t.Errorf(`ParseExpr("X # 1") = %#v, want *ParseError at 1:3: unexpected character '#'`, err)
	}
}

const trivialProgram = `
      PROGRAM MAIN
      INTEGER N
      PARAMETER (N=100)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        A(I) = B(I) + 1.0
      END DO
      END
`

func TestParseTrivialProgram(t *testing.T) {
	prog, err := ParseProgram(trivialProgram)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	u := prog.Main()
	if u == nil || u.Name != "MAIN" {
		t.Fatalf("main unit missing")
	}
	if s := u.Symbols.Lookup("A"); s == nil || !s.IsArray() || s.Type != ir.TypeReal {
		t.Errorf("A not declared as REAL array: %+v", s)
	}
	if s := u.Symbols.Lookup("N"); s == nil || s.Param == nil || s.Param.String() != "100" {
		t.Errorf("N not a PARAMETER 100")
	}
	loops := ir.Loops(u.Body)
	if len(loops) != 1 || loops[0].Index != "I" {
		t.Fatalf("loop not parsed")
	}
	if got := loops[0].Body.Stmts[0].(*ir.AssignStmt).RHS.String(); got != "B(I)+1.0" {
		t.Errorf("loop body RHS = %q", got)
	}
}

func TestParseSubroutineAndCall(t *testing.T) {
	src := `
      PROGRAM MAIN
      REAL X(10)
      CALL INIT(X, 10)
      END

      SUBROUTINE INIT(A, N)
      INTEGER N, I
      REAL A(N)
      DO I = 1, N
        A(I) = 0.0
      END DO
      RETURN
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	sub := prog.Unit("INIT")
	if sub == nil || sub.Kind != ir.UnitSubroutine {
		t.Fatalf("INIT not parsed as subroutine")
	}
	if len(sub.Formals) != 2 || sub.Formals[0] != "A" {
		t.Errorf("formals = %v", sub.Formals)
	}
	if s := sub.Symbols.Lookup("A"); s == nil || !s.Formal || !s.IsArray() {
		t.Errorf("formal array A wrong: %+v", s)
	}
	call, ok := prog.Main().Body.Stmts[0].(*ir.CallStmt)
	if !ok || call.Name != "INIT" || len(call.Args) != 2 {
		t.Errorf("CALL not parsed: %+v", call)
	}
}

func TestParseFunction(t *testing.T) {
	src := `
      PROGRAM MAIN
      Y = F(2.0) + 1.0
      END

      REAL FUNCTION F(X)
      REAL X
      F = X * X
      RETURN
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	f := prog.Unit("F")
	if f == nil || f.Kind != ir.UnitFunction || f.ReturnType != ir.TypeReal {
		t.Fatalf("function F wrong: %+v", f)
	}
	// In MAIN, F(2.0) must be a Call, not an ArrayRef.
	rhs := prog.Main().Body.Stmts[0].(*ir.AssignStmt).RHS
	if _, ok := rhs.(*ir.Binary).L.(*ir.Call); !ok {
		t.Errorf("F(2.0) parsed as %T, want *ir.Call", rhs.(*ir.Binary).L)
	}
}

func TestParseIfForms(t *testing.T) {
	src := `
      PROGRAM MAIN
      INTEGER I, P
      P = 0
      IF (I .GT. 0) P = 1
      IF (I .GT. 10) THEN
        P = 2
      ELSE IF (I .GT. 5) THEN
        P = 3
      ELSE
        P = 4
      END IF
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	body := prog.Main().Body
	logIf, ok := body.Stmts[1].(*ir.IfStmt)
	if !ok || logIf.Else != nil || len(logIf.Then.Stmts) != 1 {
		t.Errorf("logical IF wrong: %+v", body.Stmts[1])
	}
	blockIf, ok := body.Stmts[2].(*ir.IfStmt)
	if !ok {
		t.Fatalf("block IF missing")
	}
	elseIf, ok := blockIf.Else.Stmts[0].(*ir.IfStmt)
	if !ok {
		t.Fatalf("ELSE IF not nested")
	}
	if elseIf.Else == nil || len(elseIf.Else.Stmts) != 1 {
		t.Errorf("final ELSE missing")
	}
}

func TestParseLabeledDo(t *testing.T) {
	src := `
      PROGRAM MAIN
      INTEGER I, N, S
      N = 10
      S = 0
      DO 10 I = 1, N
        S = S + I
 10   CONTINUE
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	loops := ir.Loops(prog.Main().Body)
	if len(loops) != 1 || len(loops[0].Body.Stmts) != 1 {
		t.Fatalf("labeled DO not parsed: %+v", loops)
	}
}

func TestParseDoWithStep(t *testing.T) {
	src := `
      PROGRAM MAIN
      INTEGER I
      DO I = 10, 1, -1
        X = I
      END DO
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	d := ir.Loops(prog.Main().Body)[0]
	if d.Step == nil || d.Step.String() != "-1" {
		t.Errorf("step = %v", d.Step)
	}
}

func TestParseCommonAndDimension(t *testing.T) {
	src := `
      PROGRAM MAIN
      DIMENSION A(100)
      COMMON /BLK/ A, X
      A(1) = X
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	u := prog.Main()
	a := u.Symbols.Lookup("A")
	if a == nil || !a.IsArray() || a.Common != "BLK" {
		t.Errorf("A wrong: %+v", a)
	}
	if x := u.Symbols.Lookup("X"); x == nil || x.Common != "BLK" {
		t.Errorf("X wrong: %+v", x)
	}
}

func TestParseContinuationAndComments(t *testing.T) {
	src := `
C A comment line
      PROGRAM MAIN
* another comment
      INTEGER I ! trailing comment
      I = 1 + &
          2
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	rhs := prog.Main().Body.Stmts[0].(*ir.AssignStmt).RHS
	if rhs.String() != "1+2" {
		t.Errorf("continuation wrong: %q", rhs)
	}
}

func TestParseMultiBlockNest(t *testing.T) {
	src := `
      PROGRAM MAIN
      INTEGER I, J, K, N
      REAL A(100)
      N = 4
      DO I = 0, N-1
        DO J = 0, N-1
          DO K = 0, J-1
            A(K+1) = A(K+1) + 1.0
          END DO
        END DO
      END DO
      END
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	loops := ir.Loops(prog.Main().Body)
	if len(loops) != 3 {
		t.Fatalf("want 3 loops, got %d", len(loops))
	}
	if loops[2].Limit.String() != "J-1" {
		t.Errorf("triangular bound = %q", loops[2].Limit)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"      PROGRAM MAIN\n      DO I = 1\n      END DO\n      END\n",
		"      PROGRAM MAIN\n      IF (X) THEN\n      END\n",
		"      PROGRAM MAIN\n      X = \n      END\n",
		"      SUBROUTINE S(\n      END\n",
		"      X = 1\n",
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram accepted bad source:\n%s", src)
		}
	}
}

// Round trip: printing a parsed program and reparsing it yields the
// same printed form (fixed point after one iteration).
func TestRoundTrip(t *testing.T) {
	srcs := []string{trivialProgram, `
      PROGRAM NEST
      INTEGER I, J, N, K1
      REAL A(1000)
      N = 10
      K1 = 0
      DO I = 1, N
        DO J = 1, I
          K1 = K1 + 1
          A(K1) = 0.5
        END DO
      END DO
      IF (N .GT. 5) THEN
        A(1) = A(2)
      ELSE
        A(2) = A(1)
      END IF
      END
`}
	for _, src := range srcs {
		p1, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("parse 1: %v", err)
		}
		out1 := p1.Fortran()
		p2, err := ParseProgram(out1)
		if err != nil {
			t.Fatalf("parse 2 of printed source: %v\n%s", err, out1)
		}
		out2 := p2.Fortran()
		if out1 != out2 {
			t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
		}
	}
}

func TestMustParsePanicsOnBad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustParse did not panic")
		}
	}()
	MustParse("      GARBAGE\n")
}

func TestParsedProgramPassesCheck(t *testing.T) {
	prog := MustParse(trivialProgram)
	if err := prog.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestImplicitDeclaration(t *testing.T) {
	src := `
      PROGRAM MAIN
      X = 1.0
      I = 2
      END
`
	prog := MustParse(src)
	u := prog.Main()
	if s := u.Symbols.Lookup("X"); s == nil || s.Type != ir.TypeReal {
		t.Errorf("X implicit type wrong")
	}
	if s := u.Symbols.Lookup("I"); s == nil || s.Type != ir.TypeInteger {
		t.Errorf("I implicit type wrong")
	}
}

func TestUndeclaredArrayGetsAssumedShape(t *testing.T) {
	src := `
      PROGRAM MAIN
      B(3) = 1.0
      Y = B(1)
      END
`
	prog := MustParse(src)
	b := prog.Main().Symbols.Lookup("B")
	if b == nil || len(b.Dims) != 1 {
		t.Fatalf("B not declared from use: %+v", b)
	}
}

func TestParseDeepNestStress(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("      PROGRAM MAIN\n      REAL A(100)\n")
	depth := 8
	for i := 0; i < depth; i++ {
		sb.WriteString("      DO I")
		sb.WriteByte(byte('0' + i))
		sb.WriteString(" = 1, 2\n")
	}
	sb.WriteString("      A(1) = A(1) + 1.0\n")
	for i := 0; i < depth; i++ {
		sb.WriteString("      END DO\n")
	}
	sb.WriteString("      END\n")
	prog, err := ParseProgram(sb.String())
	if err != nil {
		t.Fatalf("deep nest: %v", err)
	}
	if got := len(ir.Loops(prog.Main().Body)); got != depth {
		t.Errorf("loops = %d, want %d", got, depth)
	}
}

// TestScratchHoldsNoIR takes the scratch a parse put back out of the
// pool and requires every slot of it, up to capacity, to be zero: after
// a parse that succeeds, and after parses that fail with lists half
// collected. A slot that kept a pointer would pin one parse's IR for as
// long as the pool holds the scratch.
func TestScratchHoldsNoIR(t *testing.T) {
	var decls strings.Builder
	for i := 0; i < 40; i++ { // past the builder's index threshold
		fmt.Fprintf(&decls, "      REAL V%d(%d)\n", i, i+1)
	}
	unit := func(body string) string {
		return "      SUBROUTINE S(A, N)\n      REAL A(N)\n" + decls.String() + `      DO 10 I = 1, N
        IF (I .GT. 1) THEN
          A(I) = MAX(A(I-1), V1(MOD(I, 2) + 1))
          CALL S(A, N - 1)
` + body + `        END IF
   10 CONTINUE
      END
      PROGRAM P
      REAL A(10)
      CALL S(A, 10)
      END
`
	}
	for _, c := range []struct{ name, src string }{
		{"parsed", unit("")},
		{"parse error in an argument list", unit("          A(I) = V2(I, MOD(I, 3) +\n")},
		{"parse error in dimensions", unit("          REAL W(4, 5,\n")},
		{"lexical error", unit("          A(I) = V3(I, #\n")},
	} {
		_, err := ParseProgram(c.src)
		if (err == nil) != (c.name == "parsed") {
			t.Fatalf("%s: error %v", c.name, err)
		}
		// The pool may hand out a fresh scratch instead (a GC empties
		// it, the race detector drops puts): parse again until the one
		// this parse used comes back.
		var s *scratch
		for i := 0; i < 100 && s == nil; i++ {
			if got := scratchPool.Get().(*scratch); cap(got.stmts) > 0 {
				s = got
			} else {
				ParseProgram(c.src)
			}
		}
		if s == nil {
			t.Fatalf("%s: the pool never gave back a used scratch", c.name)
		}
		for _, dirty := range nonZero(reflect.ValueOf(s).Elem(), "scratch") {
			t.Errorf("%s: %s", c.name, dirty)
		}
	}
}

// nonZero lists the pointers, the slice slots, up to capacity, and the
// map entries under v that are not zero.
func nonZero(v reflect.Value, path string) []string {
	var dirty []string
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dirty = append(dirty, nonZero(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
	case reflect.Slice:
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < full.Len(); i++ {
			if !full.Index(i).IsZero() {
				dirty = append(dirty, fmt.Sprintf("%s[%d] of %d is set", path, i, v.Cap()))
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			dirty = append(dirty, path+" is set")
		}
	case reflect.Map:
		if v.Len() > 0 {
			dirty = append(dirty, fmt.Sprintf("%s holds %d entries", path, v.Len()))
		}
	}
	return dirty
}
