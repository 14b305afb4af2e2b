package ir

import (
	"fmt"
	"runtime"
	"testing"
)

// TestDropSourceKeepsLength: a unit that drops its parse-time text
// keeps its length, and Fortran sizes its one buffer from that length
// as it did from the text, so rendering a dropped unit allocates
// exactly what rendering it with the text does. A unit built without
// text shows the measurement sees the estimate: its buffer grows.
func TestDropSourceKeepsLength(t *testing.T) {
	build := func() *ProgramUnit {
		u := NewUnit(UnitSubroutine, "SCALE")
		u.Formals = []string{"A", "N"}
		u.Symbols.Insert(&Symbol{Name: "A", Type: TypeReal, Formal: true, Dims: []Dim{{Hi: Var("N")}}})
		u.Symbols.Insert(&Symbol{Name: "N", Type: TypeInteger, Formal: true})
		u.Symbols.Insert(&Symbol{Name: "I", Type: TypeInteger})
		for k := range 200 {
			body := NewBlock()
			body.Append(&AssignStmt{LHS: Index("A", Var("I")), RHS: Mul(Index("A", Var("I")), Int(int64(k)))})
			u.Body.Append(&DoStmt{Index: "I", Init: Int(1), Limit: Var("N"), Step: Int(1), Body: body, ID: fmt.Sprintf("SCALE/L%d", k)})
		}
		return u
	}
	type cost struct{ objects, bytes uint64 }
	render := func(u *ProgramUnit) cost {
		best := cost{1 << 62, 1 << 62}
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_ = u.Fortran()
			runtime.ReadMemStats(&after)
			best.objects = min(best.objects, after.Mallocs-before.Mallocs)
			best.bytes = min(best.bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}

	u := build()
	u.Source = u.Fortran() // as long as its rendering, which the estimate runs a half over
	n := len(u.Source)
	with := render(u)
	u.DropSource()
	if u.Source != "" || u.SourceLen() != n {
		t.Fatalf("after DropSource: Source %d bytes, SourceLen %d; want 0 and %d", len(u.Source), u.SourceLen(), n)
	}
	if u.DropSource(); u.SourceLen() != n {
		t.Fatalf("a second DropSource left SourceLen %d, want %d", u.SourceLen(), n)
	}
	if c := u.Clone(); c.SourceLen() != n {
		t.Fatalf("a clone of a dropped unit has SourceLen %d, want %d", c.SourceLen(), n)
	}
	dropped, bare := render(u), render(build())
	t.Logf("rendering %d bytes: %+v with the text, %+v dropped, %+v built without text", n, with, dropped, bare)
	if dropped != with {
		t.Errorf("rendering a dropped unit allocates %+v, with its text %+v", dropped, with)
	}
	if bare == with {
		t.Errorf("a unit without text allocates %+v too: the measurement does not see the estimate", bare)
	}
}
