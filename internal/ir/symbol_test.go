package ir_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

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
		if got := tab.FreshName("V", ir.Symbol{Type: ir.TypeReal}); got != "V" {
			t.Errorf("n=%d: FreshName(V) = %s", n, got)
		}
		if got := tab.FreshName("V", ir.Symbol{Type: ir.TypeReal}); got != symName(n) {
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

// TestSymbolBuilderPacksTable: a builder finds what it declared below
// and past the size where its index appears, packs it into a table the
// scan and the index agree with, and starts the next table empty.
func TestSymbolBuilderPacksTable(t *testing.T) {
	if size := unsafe.Sizeof(ir.Symbol{}); size != 80 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Errorf("a Symbol is %d bytes, want 80", size)
	}
	var b ir.SymbolBuilder
	for _, n := range []int{1, 22, 33, 5000} {
		for i := 0; i < n; i++ {
			b.Declare(symName(i)).Formal = i%2 == 0
		}
		b.Declare("INEW")
		for i := 0; i < n; i++ {
			if s := b.Lookup(symName(i)); s == nil || s.Formal != (i%2 == 0) || b.Declare(symName(i)) != s {
				t.Fatalf("n=%d: builder lost %s: %+v", n, symName(i), s)
			}
		}
		tab := b.Table(nil)
		if tab.Len() != n+1 || tab.Lookup("INEW").Type != ir.TypeInteger || tab.Lookup(symName(n-1)).Type != ir.TypeReal {
			t.Fatalf("n=%d: table of %d symbols, INEW %+v", n, tab.Len(), tab.Lookup("INEW"))
		}
		for i, s := range tab.All()[:n] {
			if s.Name != symName(i) || tab.Lookup(s.Name) != s {
				t.Fatalf("n=%d: All()[%d] is %s and Lookup disagrees", n, i, s.Name)
			}
		}
		if b.Lookup(symName(0)) != nil || b.Lookup("INEW") != nil {
			t.Fatalf("n=%d: the builder still holds symbols after Table", n)
		}
	}
}

// TestTableSharesEqualSymbols: a table points at the previous table's
// symbol of a name when every field of the two is equal, dimensions and
// PARAMETER value by Equal; it copies a symbol that differs in any
// field, and a formal even when it does not. BindFormal writes formals
// alone.
func TestTableSharesEqualSymbols(t *testing.T) {
	declare := func(b *ir.SymbolBuilder, hi int64) {
		b.Declare("A").Dims = []ir.Dim{{Hi: ir.Int(hi)}}
		b.Declare("N").Param = ir.Int(8)
		c := b.Declare("C")
		c.Common, c.Type = "W", ir.TypeInteger
		b.Declare("F").Formal = true
		b.Declare("S")
	}
	var b ir.SymbolBuilder
	declare(&b, 10)
	prev := b.Table(nil)
	declare(&b, 10)
	b.Declare("D").Dims = []ir.Dim{{Hi: ir.Int(4)}}
	same := b.Table(prev)
	declare(&b, 20)
	other := b.Table(same)
	for _, c := range []struct {
		tab, before *ir.SymbolTable
		name        string
		shared      bool
	}{
		{same, prev, "A", true}, {same, prev, "N", true}, {same, prev, "C", true}, {same, prev, "S", true},
		{same, prev, "F", false}, {same, prev, "D", false},
		{other, same, "A", false}, {other, same, "N", true}, {other, same, "F", false},
	} {
		if got := c.tab.Lookup(c.name) == c.before.Lookup(c.name); got != c.shared {
			t.Errorf("%s shared %t, want %t", c.name, got, c.shared)
		}
	}
	if n := same.Lookup("N"); n.Param.(*ir.ConstInt).Val != 8 || n.Formal {
		t.Errorf("shared N is %+v", n)
	}
	same.BindFormal("F", ir.Int(4))
	if f, p := same.Lookup("F"), prev.Lookup("F"); f.Formal || f.Param == nil || !p.Formal || p.Param != nil {
		t.Errorf("BindFormal on one table: F is %+v there and %+v in the table before", f, p)
	}
	mustPanic(t, "BindFormal of a bound formal", func() { same.BindFormal("F", ir.Int(4)) })
	mustPanic(t, "BindFormal of a shared symbol", func() { same.BindFormal("S", ir.Int(4)) })
	mustPanic(t, "BindFormal of an undeclared name", func() { same.BindFormal("Q", ir.Int(4)) })
}

// TestTableSharesOnlyEqualSymbols: a symbol that differs from the
// previous table's in any one field is not shared, whatever the field.
// The fields are read off the Symbol type, so a field added to it
// fails here until SymbolTable.equalTo compares it (and this test
// knows how to make it differ).
func TestTableSharesOnlyEqualSymbols(t *testing.T) {
	base := ir.Symbol{Name: "A", Dims: []ir.Dim{{Hi: ir.Int(10)}}, Param: ir.Int(8), Common: "W", Type: ir.TypeInteger}
	table := func(prev *ir.SymbolTable, sym ir.Symbol) *ir.SymbolTable {
		var b ir.SymbolBuilder
		*b.Declare(sym.Name) = sym
		return b.Table(prev)
	}
	prev := table(nil, base)
	if table(prev, base).Lookup("A") != prev.Lookup("A") {
		t.Fatalf("an equal symbol is not shared")
	}
	st := reflect.TypeOf(base)
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Name == "Name" {
			continue // a table is looked up by name
		}
		sym := base
		v := reflect.ValueOf(&sym).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.String:
			v.SetString(v.String() + "X")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			v.SetUint(v.Uint() + 1)
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			v.SetInt(v.Int() + 1)
		default:
			switch f.Name {
			case "Dims":
				sym.Dims = []ir.Dim{{Hi: ir.Int(10)}, {Hi: ir.Int(2)}}
			case "Param":
				sym.Param = ir.Int(9)
			default:
				t.Fatalf("Symbol.%s (%s): make it differ here, and compare it in SymbolTable.equalTo", f.Name, f.Type)
			}
		}
		if table(prev, sym).Lookup("A") == prev.Lookup("A") {
			t.Errorf("a symbol that differs in %s is shared", f.Name)
		}
	}
}

// TestSymbolTableAllocBudget: a 22-symbol table, the largest a mega50k
// unit has, is built in the doublings of its two slices and cloned in
// one allocation for the table, one per slice and one for the block of
// symbols — no map, no list of names beside it. The map-backed table
// took 14 to build and 36 to clone, and a map's worth of bytes each
// time; a clone with a symbol per allocation took 25.
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
	if clone := testing.AllocsPerRun(20, func() { tab.Clone() }); clone > 4 {
		t.Errorf("cloning a %d-symbol table allocates %.0f times, budget 4", n, clone)
	}
}

// TestHugeUnitParsesInLinearTime: past indexAbove the builder and the
// table are indexed, so a unit with ten times the declarations makes
// about ten times the name comparisons to parse, not a hundred times.
// The count is the work itself, not a clock, so it reads the same on
// any machine (9.8x) and the bound needs no room for noise: 11x, where
// the quadratic scan (no index) reads 100x.
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
	compares := func(decls int) int {
		n := 0
		stop := ir.CountNameCompares(&n)
		defer stop()
		prog, err := parser.ParseProgram(unit(decls))
		if err != nil || prog.Units[0].Symbols.Len() != decls {
			t.Fatalf("%d declarations: %v", decls, err)
		}
		return n
	}
	small, large := compares(5000), compares(50000)
	t.Logf("5000 declarations %d name comparisons, 50000 declarations %d (%.1fx)", small, large, float64(large)/float64(small))
	if large > 11*small {
		t.Errorf("50000 declarations make %d name comparisons, 5000 make %d: more than 11x", large, small)
	}
}
