package interproc_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/interproc"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// refPropagate is the propagation Analyze + Apply replaced, kept here as
// the reference: it specializes prog in place, re-slicing Formals and
// Args as it goes and sweeping until a round changes nothing (four
// rounds at most). It returns the constants, the edit signatures it
// would have keyed units by, and the number of rounds that changed
// something.
func refPropagate(prog *ir.Program) (propagated map[string]int64, sigs map[string]string, rounds int) {
	type site struct {
		call  *ir.CallStmt
		owner string
	}
	sitesByName := map[string][]site{}
	for _, u := range prog.Units {
		ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
			if c, ok := s.(*ir.CallStmt); ok {
				sitesByName[c.Name] = append(sitesByName[c.Name], site{c, u.Name})
			}
			return true
		})
	}
	modifies := func(u *ir.ProgramUnit, name string) bool {
		found := false
		ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
			switch x := s.(type) {
			case *ir.AssignStmt:
				if v, ok := x.LHS.(*ir.VarRef); ok && v.Name == name {
					found = true
				}
			case *ir.DoStmt:
				found = found || x.Index == name
			case *ir.CallStmt:
				for _, a := range x.Args {
					if v, ok := a.(*ir.VarRef); ok && v.Name == name {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}
	propagated = map[string]int64{}
	selfEvents, argDrops := map[string][]string{}, map[string][]string{}
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, callee := range prog.Units {
			sites := sitesByName[callee.Name]
			if callee.Kind != ir.UnitSubroutine || len(callee.Formals) == 0 || len(sites) == 0 {
				continue
			}
			for fi := 0; fi < len(callee.Formals); fi++ {
				formal := callee.Formals[fi]
				fsym := callee.Symbols.Lookup(formal)
				if fsym == nil || fsym.IsArray() || fsym.Type != ir.TypeInteger {
					continue
				}
				var val int64
				uniform := true
				for i, s := range sites {
					if fi >= len(s.call.Args) {
						uniform = false
						break
					}
					c, ok := s.call.Args[fi].(*ir.ConstInt)
					if !ok || (i > 0 && c.Val != val) {
						uniform = false
						break
					}
					val = c.Val
				}
				if !uniform || modifies(callee, formal) {
					continue
				}
				callee.Formals = append(callee.Formals[:fi], callee.Formals[fi+1:]...)
				fsym.Formal = false
				fsym.Param = ir.Int(val)
				selfEvents[callee.Name] = append(selfEvents[callee.Name], fmt.Sprintf("%d:%s=%d", fi, formal, val))
				argDrops[callee.Name] = append(argDrops[callee.Name], fmt.Sprintf("%d=%d", fi, val))
				for _, s := range sites {
					s.call.Args = append(s.call.Args[:fi], s.call.Args[fi+1:]...)
				}
				propagated[callee.Name+"."+formal] = val
				changed = true
				fi--
			}
		}
		if !changed {
			break
		}
		rounds++
	}
	calleesOf := map[string]map[string]bool{}
	for name, sites := range sitesByName {
		for _, s := range sites {
			if len(argDrops[name]) > 0 {
				if calleesOf[s.owner] == nil {
					calleesOf[s.owner] = map[string]bool{}
				}
				calleesOf[s.owner][name] = true
			}
		}
	}
	sigs = map[string]string{}
	for _, u := range prog.Units {
		var parts []string
		if evs := selfEvents[u.Name]; len(evs) > 0 {
			parts = append(parts, "self["+strings.Join(evs, ",")+"]")
		}
		var names []string
		for name := range calleesOf[u.Name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			parts = append(parts, "call-"+name+"["+strings.Join(argDrops[name], ",")+"]")
		}
		if len(parts) > 0 {
			sigs[u.Name] = strings.Join(parts, ";")
		}
	}
	return propagated, sigs, rounds
}

// renderUnit is everything a propagation may write in a unit: the text
// (declarations, PARAMETERs and call argument lists included), the
// formal list, and each symbol's Formal and Param fields.
func renderUnit(u *ir.ProgramUnit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nformals %q\n", u.Fortran(), u.Formals)
	for _, sym := range u.Symbols.All() {
		param := "-"
		if sym.Param != nil {
			param = sym.Param.String()
		}
		fmt.Fprintf(&b, "%s formal=%t param=%s\n", sym.Name, sym.Formal, param)
	}
	return b.String()
}

func renderUnits(prog *ir.Program) []string {
	out := make([]string, len(prog.Units))
	for i, u := range prog.Units {
		out[i] = renderUnit(u)
	}
	return out
}

// callArgs lists the argument lists of every call to callee in unit, in
// statement order.
func callArgs(prog *ir.Program, unit, callee string) []string {
	var out []string
	ir.WalkStmts(prog.Unit(unit).Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.CallStmt); ok && c.Name == callee {
			args := make([]string, len(c.Args))
			for i, a := range c.Args {
				args[i] = a.String()
			}
			out = append(out, strings.Join(args, ","))
		}
		return true
	})
	return out
}

// checkAgainstReference holds plan + apply to the in-place propagation
// on one program: planning writes nothing, the plan applied to every
// unit leaves the program the reference leaves, and Propagated and
// UnitSigs are equal. It returns the specialized program and the report.
func checkAgainstReference(t *testing.T, name, src string) (*ir.Program, *interproc.Report) {
	t.Helper()
	ref := parser.MustParse(src)
	wantProp, wantSigs, rounds := refPropagate(ref)
	if rounds > 1 {
		t.Errorf("%s: the reference changed the program in %d rounds; Analyze's single sweep assumes one", name, rounds)
	}

	prog := parser.MustParse(src)
	before := renderUnits(prog)
	plan := interproc.Analyze(prog)
	if after := renderUnits(prog); !reflect.DeepEqual(before, after) {
		t.Fatalf("%s: Analyze wrote the program it planned over", name)
	}
	for i, u := range prog.Units {
		plan.Apply(i, u)
	}
	if err := prog.Check(); err != nil {
		t.Fatalf("%s: inconsistent after apply: %v", name, err)
	}
	got, want := renderUnits(prog), renderUnits(ref)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: unit %s differs from the in-place propagation\n--- plan + apply\n%s--- reference\n%s",
				name, ref.Units[i].Name, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(plan.Propagated, wantProp) {
		t.Errorf("%s: Propagated = %v, reference %v", name, plan.Propagated, wantProp)
	}
	if sigs := sigsByName(t, prog, &plan.Report); !reflect.DeepEqual(sigs, wantSigs) {
		t.Errorf("%s: UnitSigs = %q, reference %q", name, sigs, wantSigs)
	}
	return prog, &plan.Report
}

// TestPlanApplyHandCases pins, on the shapes an index overlay can get
// wrong, what plan + apply leaves behind — and that the in-place
// propagation leaves the same.
func TestPlanApplyHandCases(t *testing.T) {
	type calls struct{ unit, callee, args string }
	cases := []struct {
		name       string
		src        string
		formals    map[string]string // unit -> remaining formals
		calls      []calls           // every call's remaining arguments ('|' between sites)
		propagated map[string]int64
		sigs       map[string]string
	}{
		{
			// Two formals dropped from one callee, an array between and a
			// kept scalar after: the second drop lands one position left
			// of where it was declared, the third two.
			name: "second index shifts",
			src: `
      PROGRAM P
      REAL X(64)
      INTEGER M
      M = 3
      CALL S(2, X, 5, M, 9)
      CALL S(2, X, 5, 4, 9)
      END
      SUBROUTINE S(I, A, J, K, L)
      INTEGER I, J, K, L
      REAL A(64)
      A(I) = A(J) + K + L
      END
`,
			formals:    map[string]string{"S": "A,K"},
			calls:      []calls{{"P", "S", "X,M|X,4"}},
			propagated: map[string]int64{"S.I": 2, "S.J": 5, "S.L": 9},
			sigs:       map[string]string{"P": "call-S[0=2,1=5,2=9]", "S": "self[0:I=2,1:J=5,2:L=9]"},
		},
		{
			// A caller that is itself specialized, whose own call sites
			// are rewritten too: both halves of its script.
			name: "specialized caller",
			src: `
      PROGRAM P
      REAL X(64)
      CALL MID(X, 7)
      END
      SUBROUTINE MID(A, N)
      INTEGER N
      REAL A(64)
      CALL LEAF(3, A, 8)
      A(N) = 1.0
      END
      SUBROUTINE LEAF(K, A, L)
      INTEGER K, L
      REAL A(64)
      A(K) = A(L)
      END
`,
			formals:    map[string]string{"MID": "A", "LEAF": "A"},
			calls:      []calls{{"P", "MID", "X"}, {"MID", "LEAF", "A"}},
			propagated: map[string]int64{"MID.N": 7, "LEAF.K": 3, "LEAF.L": 8},
			sigs: map[string]string{
				"P":    "call-MID[1=7]",
				"MID":  "self[1:N=7];call-LEAF[0=3,1=8]",
				"LEAF": "self[0:K=3,1:L=8]",
			},
		},
		{
			// One callee reached from three owners, twice from one of
			// them, with one site short an argument: position 2 is not
			// uniform because it is missing there, not because it differs.
			name: "several owners",
			src: `
      PROGRAM P
      REAL X(64)
      CALL A1(X)
      CALL A2(X)
      CALL LEAF(X, 6, 1)
      END
      SUBROUTINE A1(A)
      REAL A(64)
      CALL LEAF(A, 6, 1)
      CALL LEAF(A, 6, 1)
      END
      SUBROUTINE A2(A)
      REAL A(64)
      CALL LEAF(A, 6)
      END
      SUBROUTINE LEAF(A, K, L)
      INTEGER K, L
      REAL A(64)
      A(K) = A(L)
      END
`,
			formals:    map[string]string{"LEAF": "A,L"},
			calls:      []calls{{"P", "LEAF", "X,1"}, {"A1", "LEAF", "A,1|A,1"}, {"A2", "LEAF", "A"}},
			propagated: map[string]int64{"LEAF.K": 6},
			sigs: map[string]string{
				"P": "call-LEAF[1=6]", "A1": "call-LEAF[1=6]", "A2": "call-LEAF[1=6]", "LEAF": "self[1:K=6]",
			},
		},
		{
			// A chain: MID receives 5 for N and hands N on to LEAF. A
			// later round of the in-place propagation finds nothing new
			// here, and cannot anywhere — only a literal counts as a
			// constant, N stays a variable reference once it is a
			// PARAMETER, and passing it on is what keeps it a formal — so
			// the only thing that reaches LEAF is the literal MID passes
			// it directly.
			name: "nothing becomes uniform in a second round",
			src: `
      PROGRAM P
      REAL X(64)
      CALL MID(X, 5)
      END
      SUBROUTINE MID(A, N)
      INTEGER N
      REAL A(64)
      CALL LEAF(A, N, 2)
      END
      SUBROUTINE LEAF(A, K, L)
      INTEGER K, L
      REAL A(64)
      A(K) = A(L)
      END
`,
			formals:    map[string]string{"MID": "A,N", "LEAF": "A,K"},
			calls:      []calls{{"P", "MID", "X,5"}, {"MID", "LEAF", "A,N"}},
			propagated: map[string]int64{"LEAF.L": 2},
			sigs:       map[string]string{"MID": "call-LEAF[2=2]", "LEAF": "self[2:L=2]"},
		},
		{
			// Five levels, each passing the next a literal: deeper than
			// the reference's four-round cap, and still one sweep.
			name: "deeper than the round cap",
			src: `
      PROGRAM P
      REAL X(64)
      CALL L1(X, 1)
      END
      SUBROUTINE L1(A, K)
      INTEGER K
      REAL A(64)
      A(K) = 0.0
      CALL L2(A, 2)
      END
      SUBROUTINE L2(A, K)
      INTEGER K
      REAL A(64)
      A(K) = 0.0
      CALL L3(A, 3)
      END
      SUBROUTINE L3(A, K)
      INTEGER K
      REAL A(64)
      A(K) = 0.0
      CALL L4(A, 4)
      END
      SUBROUTINE L4(A, K)
      INTEGER K
      REAL A(64)
      A(K) = 0.0
      CALL L5(A, 5)
      END
      SUBROUTINE L5(A, K)
      INTEGER K
      REAL A(64)
      A(K) = 0.0
      END
`,
			formals:    map[string]string{"L1": "A", "L2": "A", "L3": "A", "L4": "A", "L5": "A"},
			calls:      []calls{{"P", "L1", "X"}, {"L4", "L5", "A"}},
			propagated: map[string]int64{"L1.K": 1, "L2.K": 2, "L3.K": 3, "L4.K": 4, "L5.K": 5},
			sigs: map[string]string{
				"P":  "call-L1[1=1]",
				"L1": "self[1:K=1];call-L2[1=2]", "L2": "self[1:K=2];call-L3[1=3]",
				"L3": "self[1:K=3];call-L4[1=4]", "L4": "self[1:K=4];call-L5[1=5]",
				"L5": "self[1:K=5]",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, rep := checkAgainstReference(t, tc.name, tc.src)
			for unit, want := range tc.formals {
				if got := strings.Join(prog.Unit(unit).Formals, ","); got != want {
					t.Errorf("%s formals = %s, want %s", unit, got, want)
				}
			}
			for _, c := range tc.calls {
				if got := strings.Join(callArgs(prog, c.unit, c.callee), "|"); got != c.args {
					t.Errorf("calls to %s in %s = %s, want %s", c.callee, c.unit, got, c.args)
				}
			}
			if !reflect.DeepEqual(rep.Propagated, tc.propagated) {
				t.Errorf("Propagated = %v, want %v", rep.Propagated, tc.propagated)
			}
			if sigs := sigsByName(t, prog, rep); !reflect.DeepEqual(sigs, tc.sigs) {
				t.Errorf("UnitSigs = %q, want %q", sigs, tc.sigs)
			}
		})
	}
}

// TestPlanApplyMatchesReferenceOnCorpus runs the same differential over
// every program the repository compiles in tests: the suite, the
// generated corpus and mega10k (1 PROGRAM + 286 subroutines).
func TestPlanApplyMatchesReferenceOnCorpus(t *testing.T) {
	constants := 0
	check := func(name, src string) {
		_, rep := checkAgainstReference(t, name, src)
		constants += len(rep.Propagated)
	}
	for _, p := range suite.All() {
		check(p.Name, p.Source)
	}
	for seed := uint64(1); seed <= 200; seed++ {
		check(fmt.Sprintf("fuzzgen-%03d", seed), fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source)
	}
	check("mega10k", fuzzgen.MegaCorpus()[0].Generate().Source)
	if constants == 0 {
		t.Error("no program in the corpus propagated a constant: the differential compared nothing")
	}
}
