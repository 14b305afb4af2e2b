package ir_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

func symName(i int) string { return fmt.Sprintf("V%d", i) }

func buildTable(n int) *ir.SymbolTable {
	t := ir.NewSymbolTable()
	for i := 0; i < n; i++ {
		t.Insert(&ir.Symbol{Name: symName(i), Type: ir.TypeReal})
	}
	return t
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if _, ok := recover().(*ir.ConsistencyError); !ok {
			t.Errorf("%s: no ConsistencyError", what)
		}
	}()
	f()
}

// TestSymbolTableSemantics runs the table's contract at one symbol, at
// the size of a megaprogram unit, just past the size where the map
// index appears, and far past it: the scan and the index must be
// indistinguishable from outside.
func TestSymbolTableSemantics(t *testing.T) {
	for _, n := range []int{1, 22, 33, 5000} {
		tab := buildTable(n)
		want := make([]string, n)
		for i := range want {
			want[i] = symName(i)
		}
		check := func(what string, tab *ir.SymbolTable) {
			t.Helper()
			if got := tab.Names(); !reflect.DeepEqual(got, want) || tab.Len() != len(want) {
				t.Fatalf("n=%d, %s: %d names (Len %d), want %d in declaration order", n, what, len(got), tab.Len(), len(want))
			}
			for i, s := range tab.All() {
				if s.Name != want[i] || tab.Lookup(want[i]) != s {
					t.Fatalf("n=%d, %s: All()[%d] is %s and Lookup(%s) disagrees", n, what, i, s.Name, want[i])
				}
			}
		}
		check("built", tab)
		if tab.Lookup("NOPE") != nil || tab.Lookup("") != nil {
			t.Errorf("n=%d: Lookup finds an undeclared name", n)
		}
		mustPanic(t, fmt.Sprintf("n=%d: duplicate Insert", n), func() { tab.Insert(&ir.Symbol{Name: symName(n - 1)}) })
		mustPanic(t, fmt.Sprintf("n=%d: empty name", n), func() { tab.Insert(&ir.Symbol{}) })
		check("after refused inserts", tab)

		if s := tab.Declare(symName(0)); s != tab.All()[0] {
			t.Errorf("n=%d: Declare of a declared name made a new symbol", n)
		}
		if s := tab.Declare("INEW"); s.Type != ir.TypeInteger || tab.Lookup("INEW") != s {
			t.Errorf("n=%d: Declare(INEW) = %+v", n, s)
		}
		want = append(want, "INEW")
		// V0 is taken, V01 is not (V1 is, when there is one).
		if got := tab.FreshName("V", ir.TypeReal, nil); got != "V" {
			t.Errorf("n=%d: FreshName(V) = %s", n, got)
		}
		if got := tab.FreshName("V", ir.TypeReal, nil); got != symName(n) {
			t.Errorf("n=%d: second FreshName(V) = %s, want %s", n, got, symName(n))
		}
		want = append(want, "V", symName(n))
		check("after Declare and FreshName", tab)

		clone := tab.Clone()
		check("clone", clone)
		clone.Lookup("INEW").Type = ir.TypeLogical
		clone.Remove(symName(0))
		clone.Insert(&ir.Symbol{Name: "ONLYCLONE"})
		if tab.Lookup("INEW").Type != ir.TypeInteger || tab.Lookup("ONLYCLONE") != nil {
			t.Errorf("n=%d: a change to the clone shows in the original", n)
		}
		check("after the clone changed", tab)

		tab.Remove("NOPE")
		check("after removing an undeclared name", tab)
		// First, middle, last; then the name is free again.
		for _, name := range []string{want[0], want[len(want)/2], want[len(want)-1]} {
			tab.Remove(name)
			for i, w := range want {
				if w == name {
					want = append(want[:i:i], want[i+1:]...)
					break
				}
			}
			if tab.Lookup(name) != nil {
				t.Errorf("n=%d: %s still found after Remove", n, name)
			}
			check("after Remove("+name+")", tab)
		}
		tab.Insert(&ir.Symbol{Name: symName(0)})
		want = append(want, symName(0))
		check("after re-inserting a removed name", tab)
	}
}

// TestSymbolTableAllocBudget: a 22-symbol table, the largest a mega50k
// unit has, is built in the doublings of its two slices and cloned in
// one allocation for the table, one per slice and one per symbol — no
// map, no list of names beside it. The map-backed table took 14 to
// build and 36 to clone, and a map's worth of bytes each time.
func TestSymbolTableAllocBudget(t *testing.T) {
	const n = 22
	syms := make([]*ir.Symbol, n)
	for i := range syms {
		syms[i] = &ir.Symbol{Name: symName(i), Type: ir.TypeReal}
	}
	var tab *ir.SymbolTable
	build := testing.AllocsPerRun(20, func() {
		tab = ir.NewSymbolTable()
		for _, s := range syms {
			tab.Insert(s)
		}
	})
	if build > 12 {
		t.Errorf("building a %d-symbol table allocates %.0f times, budget 12", n, build)
	}
	// Each scalar symbol's Clone is the symbol and its empty Dims.
	clone := testing.AllocsPerRun(20, func() { tab.Clone() })
	if budget := float64(3 + n); clone > budget {
		t.Errorf("cloning a %d-symbol table allocates %.0f times, budget %.0f", n, clone, budget)
	}
}

// TestHugeUnitParsesInLinearTime: past indexAbove the table is indexed,
// so a unit with ten times the declarations takes about ten times as
// long to parse, not a hundred. The bound leaves a factor of two for a
// noisy machine; the quadratic scan misses it by a factor of five.
func TestHugeUnitParsesInLinearTime(t *testing.T) {
	unit := func(decls int) string {
		var b strings.Builder
		b.WriteString("      PROGRAM P\n")
		for i := 0; i < decls; i++ {
			fmt.Fprintf(&b, "      REAL V%d\n", i)
		}
		for i := 0; i < decls; i++ {
			fmt.Fprintf(&b, "      V%d = %d\n", i, i)
		}
		b.WriteString("      END\n")
		return b.String()
	}
	parse := func(src string, decls int) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			prog, err := parser.ParseProgram(src)
			if d := time.Since(start); d < best {
				best = d
			}
			if err != nil || prog.Units[0].Symbols.Len() != decls {
				t.Fatalf("%d declarations: %v", decls, err)
			}
		}
		return best
	}
	small, large := parse(unit(5000), 5000), parse(unit(50000), 50000)
	t.Logf("5000 declarations %v, 50000 declarations %v (%.1fx)", small, large, float64(large)/float64(small))
	if large > 20*small {
		t.Errorf("50000 declarations parse in %v, 5000 in %v: more than 20x", large, small)
	}
}
