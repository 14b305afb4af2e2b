package ir

import (
	"strings"
	"testing"
)

func simpleLoop() *DoStmt {
	return &DoStmt{
		Index: "I",
		Init:  Int(1),
		Limit: Var("N"),
		Body: NewBlock(
			&AssignStmt{LHS: Index("A", Var("I")), RHS: Add(Index("B", Var("I")), Int(1))},
		),
	}
}

func TestBlockInsertRemove(t *testing.T) {
	b := NewBlock()
	s1 := &AssignStmt{LHS: Var("X"), RHS: Int(1)}
	s2 := &AssignStmt{LHS: Var("Y"), RHS: Int(2)}
	s3 := &AssignStmt{LHS: Var("Z"), RHS: Int(3)}
	b.Append(s1, s3)
	b.Insert(1, s2)
	if b.IndexOf(s2) != 1 || len(b.Stmts) != 3 {
		t.Fatalf("Insert misplaced: %v", b.Stmts)
	}
	got := b.Remove(1)
	if got != s2 || len(b.Stmts) != 2 || b.Stmts[1] != s3 {
		t.Errorf("Remove returned %v", got)
	}
}

func TestBlockInsertOutOfRangePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("Insert out of range did not panic")
		} else if _, ok := r.(*ConsistencyError); !ok {
			t.Errorf("panic value %T, want *ConsistencyError", r)
		}
	}()
	NewBlock().Insert(5, &ReturnStmt{})
}

func TestRemoveStmtNested(t *testing.T) {
	inner := &AssignStmt{LHS: Var("X"), RHS: Int(1)}
	d := &DoStmt{Index: "I", Init: Int(1), Limit: Int(10),
		Body: NewBlock(&IfStmt{Cond: Logical(true), Then: NewBlock(inner)})}
	b := NewBlock(d)
	if !b.RemoveStmt(inner) {
		t.Fatalf("RemoveStmt did not find nested statement")
	}
	if ContainsStmt(b, inner) {
		t.Errorf("statement still present after RemoveStmt")
	}
	if b.RemoveStmt(inner) {
		t.Errorf("RemoveStmt found already-removed statement")
	}
}

func TestDoStmtCloneDeep(t *testing.T) {
	d := simpleLoop()
	d.Par = &ParInfo{Parallel: true, Private: []string{"T"}}
	c := d.Clone().(*DoStmt)
	c.Body.Stmts[0].(*AssignStmt).RHS = Int(99)
	c.Par.Private[0] = "U"
	if d.Body.Stmts[0].(*AssignStmt).RHS.String() != "B(I)+1" {
		t.Errorf("clone shared body")
	}
	if d.Par.Private[0] != "T" {
		t.Errorf("clone shared ParInfo")
	}
}

func TestWalkAndLoops(t *testing.T) {
	outer := &DoStmt{Index: "I", Init: Int(1), Limit: Var("N"), Body: NewBlock()}
	mid := &DoStmt{Index: "J", Init: Int(1), Limit: Var("I"), Body: NewBlock()}
	innermost := &DoStmt{Index: "K", Init: Int(1), Limit: Var("J"), Body: NewBlock(
		&AssignStmt{LHS: Var("X"), RHS: Int(0)})}
	mid.Body.Append(innermost)
	outer.Body.Append(mid)
	b := NewBlock(outer)

	loops := Loops(b)
	if len(loops) != 3 || loops[0] != outer || loops[2] != innermost {
		t.Fatalf("Loops order wrong: %v", loops)
	}
	if got := OuterLoops(b); len(got) != 1 || got[0] != outer {
		t.Errorf("OuterLoops wrong")
	}
	encl := EnclosingLoops(b, innermost.Body.Stmts[0])
	if len(encl) != 3 || encl[0] != outer || encl[2] != innermost {
		t.Errorf("EnclosingLoops = %v", encl)
	}
	if EnclosingLoops(b, &ReturnStmt{}) != nil {
		t.Errorf("EnclosingLoops found absent stmt")
	}
}

func TestOuterLoopsUnderIf(t *testing.T) {
	d := simpleLoop()
	b := NewBlock(&IfStmt{Cond: Logical(true), Then: NewBlock(d)})
	if got := OuterLoops(b); len(got) != 1 || got[0] != d {
		t.Errorf("OuterLoops did not descend into IF")
	}
}

func TestReferencesVar(t *testing.T) {
	d := simpleLoop()
	b := NewBlock(d)
	for _, name := range []string{"A", "B", "I", "N"} {
		if !ReferencesVar(b, name) {
			t.Errorf("ReferencesVar(%s) = false", name)
		}
	}
	if ReferencesVar(b, "Q") {
		t.Errorf("ReferencesVar found absent name")
	}
}

func TestMapStmtExprs(t *testing.T) {
	d := simpleLoop()
	b := NewBlock(d)
	MapStmtExprs(b, func(e Expr) Expr {
		if v, ok := e.(*VarRef); ok && v.Name == "N" {
			return Int(100)
		}
		return e
	})
	if d.Limit.String() != "100" {
		t.Errorf("MapStmtExprs did not rewrite loop bound: %s", d.Limit)
	}
}

func TestCountStmts(t *testing.T) {
	d := simpleLoop()
	b := NewBlock(d, &AssignStmt{LHS: Var("S"), RHS: Int(0)})
	if got := CountStmts(b); got != 3 {
		t.Errorf("CountStmts = %d, want 3", got)
	}
}

func TestFortranOutput(t *testing.T) {
	u := NewUnit(UnitProgram, "MAIN")
	u.Symbols.Insert(&Symbol{Name: "N", Type: TypeInteger, Param: Int(10)})
	u.Symbols.Insert(&Symbol{Name: "A", Type: TypeReal, Dims: []Dim{{Hi: Var("N")}}})
	u.Symbols.Insert(&Symbol{Name: "I", Type: TypeInteger})
	d := simpleLoop()
	d.Par = &ParInfo{Parallel: true, Reductions: []Reduction{{Target: "S", Op: "+"}}}
	u.Body.Append(d)
	p := NewProgram()
	p.Add(u)
	src := p.Fortran()
	for _, want := range []string{"PROGRAM MAIN", "PARAMETER (N=10)", "REAL A(N)", "C$OMP PARALLEL DO REDUCTION(+:S)", "DO I = 1, N", "END DO", "END"} {
		if !strings.Contains(src, want) {
			t.Errorf("Fortran output missing %q:\n%s", want, src)
		}
	}
}

func TestSymbolTable(t *testing.T) {
	st := NewSymbolTable()
	st.Insert(&Symbol{Name: "X", Type: TypeReal})
	if st.Lookup("X") == nil || st.Lookup("Y") != nil {
		t.Fatalf("Lookup wrong")
	}
	s := st.Declare("IVAL")
	if s.Type != TypeInteger {
		t.Errorf("implicit type of IVAL = %v, want INTEGER", s.Type)
	}
	s2 := st.Declare("XVAL")
	if s2.Type != TypeReal {
		t.Errorf("implicit type of XVAL = %v, want REAL", s2.Type)
	}
	if st.Len() != 3 {
		t.Errorf("Len = %d", st.Len())
	}
	fresh := st.FreshName("X", Symbol{Type: TypeReal})
	if fresh == "X" || st.Lookup(fresh) == nil {
		t.Errorf("FreshName collided: %s", fresh)
	}
	st.Remove("X")
	if st.Lookup("X") != nil || st.Len() != 3 {
		t.Errorf("Remove failed")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate Insert did not panic")
		}
	}()
	st.Insert(&Symbol{Name: "IVAL"})
}

// TestCheckCatchesAliasing: a node reachable from two places is an
// error that names the unit it was first reached from and the unit it
// was reached from again, within one unit and across units.
func TestCheckCatchesAliasing(t *testing.T) {
	twoUnits := func() (*Program, *ProgramUnit, *ProgramUnit) {
		p := NewProgram()
		a, b := NewUnit(UnitProgram, "MAIN"), NewUnit(UnitSubroutine, "SUB")
		p.Add(a)
		p.Add(b)
		return p, a, b
	}
	cases := []struct {
		name  string
		build func() *Program
		want  string
	}{
		{"expression, same unit", func() *Program {
			p, u, _ := twoUnits()
			shared := Add(Var("X"), Int(1))
			u.Body.Append(&AssignStmt{LHS: Var("Y"), RHS: shared})
			u.Body.Append(&AssignStmt{LHS: Var("Z"), RHS: shared})
			return p
		}, "ir: consistency: expression X+1 aliased (first seen in unit MAIN, again in unit MAIN)"},
		{"expression, across units", func() *Program {
			p, a, b := twoUnits()
			shared := Add(Var("X"), Int(1))
			a.Body.Append(&AssignStmt{LHS: Var("Y"), RHS: shared})
			b.Body.Append(&AssignStmt{LHS: Var("Z"), RHS: Mul(Int(2), shared)})
			return p
		}, "ir: consistency: expression X+1 aliased (first seen in unit MAIN, again in unit SUB)"},
		{"statement, same unit", func() *Program {
			p, u, _ := twoUnits()
			s := &CallStmt{Name: "F"}
			u.Body.Append(s)
			u.Body.Append(&IfStmt{Cond: Var("L"), Then: NewBlock(s)})
			return p
		}, "ir: consistency: statement aliased between unit MAIN and unit MAIN"},
		{"statement, across units", func() *Program {
			p, a, b := twoUnits()
			s := &CallStmt{Name: "F"}
			a.Body.Append(s)
			b.Body.Append(s)
			return p
		}, "ir: consistency: statement aliased between unit MAIN and unit SUB"},
	}
	for _, c := range cases {
		err := c.build().Check()
		if err == nil {
			t.Errorf("%s: Check missed the aliasing", c.name)
		} else if err.Error() != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, err, c.want)
		}
	}
}

// TestCheckExemptsZeroSizedStatements: RETURN, STOP and CONTINUE carry
// no state, so Go may give separate allocations one address; sharing
// them, within a unit or across units, is not aliasing.
func TestCheckExemptsZeroSizedStatements(t *testing.T) {
	p := NewProgram()
	a, b := NewUnit(UnitProgram, "MAIN"), NewUnit(UnitSubroutine, "SUB")
	p.Add(a)
	p.Add(b)
	ret, stop, cont := &ReturnStmt{}, &StopStmt{}, &ContinueStmt{}
	for _, u := range []*ProgramUnit{a, b} {
		u.Body.Append(cont)
		u.Body.Append(cont)
		u.Body.Append(&IfStmt{Cond: Var("L"), Then: NewBlock(ret), Else: NewBlock(stop)})
	}
	if err := p.Check(); err != nil {
		t.Errorf("Check rejected shared zero-sized statements: %v", err)
	}
}

func TestCheckCatchesRankMismatch(t *testing.T) {
	u := NewUnit(UnitProgram, "MAIN")
	u.Symbols.Insert(&Symbol{Name: "A", Type: TypeReal, Dims: []Dim{{Hi: Int(10)}, {Hi: Int(10)}}})
	u.Body.Append(&AssignStmt{LHS: Index("A", Int(1)), RHS: Int(0)})
	if err := u.Check(); err == nil {
		t.Errorf("Check missed rank mismatch")
	}
}

func TestCheckCatchesRealDoIndex(t *testing.T) {
	u := NewUnit(UnitProgram, "MAIN")
	u.Body.Append(&DoStmt{Index: "X", Init: Int(1), Limit: Int(10), Body: NewBlock()})
	if err := u.Check(); err == nil {
		t.Errorf("Check missed REAL DO index")
	}
}

func TestCheckCatchesEscapedWildcard(t *testing.T) {
	u := NewUnit(UnitProgram, "MAIN")
	u.Body.Append(&AssignStmt{LHS: Var("X"), RHS: &Wildcard{ID: "w"}})
	if err := u.Check(); err == nil {
		t.Errorf("Check missed escaped wildcard")
	}
}

func TestCheckAcceptsValidProgram(t *testing.T) {
	u := NewUnit(UnitProgram, "MAIN")
	u.Symbols.Insert(&Symbol{Name: "A", Type: TypeReal, Dims: []Dim{{Hi: Int(10)}}})
	d := simpleLoop()
	// B must be declared as an array.
	u.Symbols.Insert(&Symbol{Name: "B", Type: TypeReal, Dims: []Dim{{Hi: Int(10)}}})
	u.Body.Append(d)
	p := NewProgram()
	p.Add(u)
	if err := p.Check(); err != nil {
		t.Errorf("Check rejected valid program: %v", err)
	}
}

func TestProgramAddDuplicatePanics(t *testing.T) {
	p := NewProgram()
	p.Add(NewUnit(UnitSubroutine, "SUB"))
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate unit did not panic")
		}
	}()
	p.Add(NewUnit(UnitSubroutine, "SUB"))
}

func TestProgramMainAndMerge(t *testing.T) {
	p := NewProgram()
	s := NewUnit(UnitSubroutine, "SUB")
	m := NewUnit(UnitProgram, "MAIN")
	p.Add(s)
	p.Add(m)
	if p.Main() != m {
		t.Errorf("Main did not find PROGRAM unit")
	}
	q := NewProgram()
	q.Add(NewUnit(UnitSubroutine, "OTHER"))
	p.Merge(q)
	if p.Unit("OTHER") == nil {
		t.Errorf("Merge missed unit")
	}
}

func TestStepOr1(t *testing.T) {
	d := simpleLoop()
	if d.StepOr1().String() != "1" {
		t.Errorf("StepOr1 default wrong")
	}
	d.Step = Int(2)
	if d.StepOr1().String() != "2" {
		t.Errorf("StepOr1 explicit wrong")
	}
}
