package ir

import (
	"strings"
	"testing"
)

func TestFortranSubroutineAndFunction(t *testing.T) {
	p := NewProgram()

	sub := NewUnit(UnitSubroutine, "SCALE")
	sub.Formals = []string{"A", "N"}
	sub.Symbols.Insert(&Symbol{Name: "A", Type: TypeReal, Formal: true, Dims: []Dim{{Hi: Var("N")}}})
	sub.Symbols.Insert(&Symbol{Name: "N", Type: TypeInteger, Formal: true})
	sub.Body.Append(&ReturnStmt{})
	p.Add(sub)

	fn := NewUnit(UnitFunction, "F")
	fn.ReturnType = TypeReal
	fn.Formals = []string{"X"}
	fn.Symbols.Insert(&Symbol{Name: "F", Type: TypeReal})
	fn.Symbols.Insert(&Symbol{Name: "X", Type: TypeReal, Formal: true})
	fn.Body.Append(&AssignStmt{LHS: Var("F"), RHS: Mul(Var("X"), Var("X"))})
	p.Add(fn)

	src := p.Fortran()
	for _, want := range []string{
		"SUBROUTINE SCALE(A,N)",
		"REAL A(N)",
		"RETURN",
		"REAL FUNCTION F(X)",
		"F = X*X",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in:\n%s", want, src)
		}
	}
}

func TestFortranLowerBoundDims(t *testing.T) {
	u := NewUnit(UnitProgram, "P")
	u.Symbols.Insert(&Symbol{Name: "A", Type: TypeReal,
		Dims: []Dim{{Lo: Neg(Int(10)), Hi: Int(10)}}})
	u.Symbols.Insert(&Symbol{Name: "B", Type: TypeInteger,
		Dims: []Dim{{Hi: nil}}}) // assumed size
	src := u.Fortran()
	if !strings.Contains(src, "A(-10:10)") {
		t.Errorf("lower-bound dim lost:\n%s", src)
	}
	if !strings.Contains(src, "B(*)") {
		t.Errorf("assumed-size dim lost:\n%s", src)
	}
}

func TestFortranCommentAndControl(t *testing.T) {
	u := NewUnit(UnitProgram, "P")
	u.Body.Append(
		&CommentStmt{Text: "a note"},
		&ContinueStmt{},
		&StopStmt{},
	)
	src := u.Fortran()
	for _, want := range []string{"C a note", "CONTINUE", "STOP"} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q:\n%s", want, src)
		}
	}
}

func TestFortranCallForms(t *testing.T) {
	u := NewUnit(UnitProgram, "P")
	u.Body.Append(
		&CallStmt{Name: "NOARG"},
		&CallStmt{Name: "TWO", Args: []Expr{Int(1), Var("X")}},
	)
	src := u.Fortran()
	if !strings.Contains(src, "CALL NOARG\n") {
		t.Errorf("zero-arg call wrong:\n%s", src)
	}
	if !strings.Contains(src, "CALL TWO(1,X)") {
		t.Errorf("two-arg call wrong:\n%s", src)
	}
}

func TestDirectiveForms(t *testing.T) {
	u := NewUnit(UnitProgram, "P")
	d := &DoStmt{Index: "I", Init: Int(1), Limit: Int(10), Body: NewBlock()}
	d.Par = &ParInfo{
		Parallel:      true,
		Private:       []string{"T"},
		PrivateArrays: []string{"W"},
		LastValue:     []string{"T"},
		Reductions:    []Reduction{{Target: "S", Op: "MAX"}},
	}
	lr := &DoStmt{Index: "J", Init: Int(1), Limit: Int(10), Body: NewBlock()}
	lr.Par = &ParInfo{LRPD: []string{"A", "B"}}
	// A live-out private is LASTPRIVATE only, even when it is the one
	// private: OpenMP allows no name in both PRIVATE and LASTPRIVATE.
	lv := &DoStmt{Index: "K", Init: Int(1), Limit: Int(10), Body: NewBlock()}
	lv.Par = &ParInfo{Parallel: true, Private: []string{"T"}, LastValue: []string{"T"}}
	u.Body.Append(d, lr, lv)
	src := u.Fortran()
	for _, want := range []string{
		"C$OMP PARALLEL DO PRIVATE(W) LASTPRIVATE(T) REDUCTION(MAX:S)\n",
		"C$POLARIS LRPD(A,B)\n",
		"C$OMP PARALLEL DO LASTPRIVATE(T)\n",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q:\n%s", want, src)
		}
	}
}

func TestEnsureParAndStepPrinting(t *testing.T) {
	d := &DoStmt{Index: "I", Init: Int(10), Limit: Int(1), Step: Int(-2), Body: NewBlock()}
	u := NewUnit(UnitProgram, "P")
	u.Body.Append(d)
	if !strings.Contains(u.Fortran(), "DO I = 10, 1, -2") {
		t.Errorf("step printing wrong:\n%s", u.Fortran())
	}
	p := d.EnsurePar()
	if p == nil || d.Par != p {
		t.Errorf("EnsurePar did not allocate")
	}
	if d.EnsurePar() != p {
		t.Errorf("EnsurePar reallocated")
	}
}

// TestFortranDeclarations pins the declaration block byte for byte:
// PARAMETERs first, then typed declarations with every dimension form,
// then COMMON blocks in order of first member with members in
// declaration order, interleaved blocks included.
func TestFortranDeclarations(t *testing.T) {
	u := NewUnit(UnitSubroutine, "S")
	u.Formals = []string{"X"}
	for _, s := range []*Symbol{
		{Name: "A", Type: TypeReal, Common: "BLK", Dims: []Dim{{Hi: Var("N")}, {Lo: Int(0), Hi: Mul(Int(2), Var("N"))}}},
		{Name: "N", Type: TypeInteger, Param: Int(8)},
		{Name: "P", Type: TypeLogical, Common: "FLAGS"},
		{Name: "X", Type: TypeReal, Formal: true, Dims: []Dim{{Lo: Int(1), Hi: Int(4)}, {Hi: nil}}},
		{Name: "K", Type: TypeInteger, Common: "BLK"},
		{Name: "M", Type: TypeInteger, Param: Add(Var("N"), Int(1))},
		{Name: "Q", Type: TypeLogical, Common: "FLAGS"},
		{Name: "T", Type: TypeReal},
	} {
		u.Symbols.Insert(s)
	}
	want := `      SUBROUTINE S(X)
      INTEGER N
      PARAMETER (N=8)
      INTEGER M
      PARAMETER (M=N+1)
      REAL A(N,0:2*N)
      LOGICAL P
      REAL X(4,*)
      INTEGER K
      LOGICAL Q
      REAL T
      COMMON /BLK/ A,K
      COMMON /FLAGS/ P,Q
      END
`
	if got := u.Fortran(); got != want {
		t.Errorf("declarations render as:\n%s\nwant:\n%s", got, want)
	}
}
