package ir

import "fmt"

// UnitKind discriminates program units.
type UnitKind int

// Program unit kinds.
const (
	UnitProgram UnitKind = iota
	UnitSubroutine
	UnitFunction
)

// String returns the Fortran keyword for the kind.
func (k UnitKind) String() string {
	switch k {
	case UnitProgram:
		return "PROGRAM"
	case UnitSubroutine:
		return "SUBROUTINE"
	case UnitFunction:
		return "FUNCTION"
	}
	return "?"
}

// ProgramUnit is a PROGRAM, SUBROUTINE, or FUNCTION: a symbol table,
// formal argument list, and statement body (the paper's ProgramUnit
// container of statements, symbol table, common blocks, equivalences).
type ProgramUnit struct {
	Kind    UnitKind
	Name    string
	Formals []string
	Symbols *SymbolTable
	Body    *Block
	// ReturnType is set for functions; the function result is assigned
	// to the variable named after the function.
	ReturnType Type
	// Source is the unit's raw source text as sliced by the parser at
	// parse time ("" for units built programmatically, and for a unit
	// after DropSource). It is parse metadata, NOT an alternate
	// rendering: transformation passes do not maintain it, so it
	// describes the unit only as long as the unit is untransformed.
	// Incremental compilation keys untouched units by it (together with
	// Program.FuncsSig) to skip re-rendering their IR; a compile drops
	// it from every unit it copies, and the unit memo from every unit it
	// keeps, which keep only SourceLen. Use Fortran() for the canonical
	// current-state text.
	Source string
	// sourceLen is len(Source) as of DropSource.
	sourceLen int
}

// SourceLen returns the length of the unit's parse-time source text,
// kept after DropSource: renderers size their buffers from it.
func (u *ProgramUnit) SourceLen() int {
	if u.Source != "" {
		return len(u.Source)
	}
	return u.sourceLen
}

// DropSource lets go of the unit's source text and keeps its length.
// The parser slices Source out of the whole input, so a unit that keeps
// it keeps the input alive.
func (u *ProgramUnit) DropSource() {
	if u.Source != "" {
		u.sourceLen, u.Source = len(u.Source), ""
	}
}

// NewUnit returns an empty unit of the given kind.
func NewUnit(kind UnitKind, name string) *ProgramUnit {
	return &ProgramUnit{Kind: kind, Name: name, Symbols: NewSymbolTable(), Body: NewBlock()}
}

// Clone copies the unit for a pass to rewrite: the body and the formal
// list are deep copies, and the symbol table is the table's Clone,
// which shares the symbols nothing writes. Nothing done to the copy,
// BindFormal included, shows in u. Because the copy's table points at
// u's symbols, a unit that outlives its compile in the unit memo has
// its table replaced at commit by DetachAll's copy, made with those of
// the other units the commit stores. The copy keeps u's Source, or,
// after DropSource, its length.
func (u *ProgramUnit) Clone() *ProgramUnit {
	return &ProgramUnit{
		Kind:       u.Kind,
		Name:       u.Name,
		Formals:    append([]string(nil), u.Formals...),
		Symbols:    u.Symbols.Clone(),
		Body:       u.Body.Clone(),
		ReturnType: u.ReturnType,
		Source:     u.Source,
		sourceLen:  u.sourceLen,
	}
}

// Program is a collection of program units (the paper's Program class).
type Program struct {
	Units []*ProgramUnit
	// FuncsSig identifies the FUNCTION-name set the parser pre-scanned
	// before parsing any unit ("" for programs built programmatically).
	// A unit's parse depends on this global set — F(I) parses as a call
	// when F is a known function and as an array reference otherwise —
	// so it is part of the parse context a unit's raw Source must be
	// interpreted under. Like ProgramUnit.Source it is parse metadata,
	// frozen at parse time.
	FuncsSig string
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// Clone copies every unit with ProgramUnit.Clone.
func (p *Program) Clone() *Program {
	c := NewProgram()
	c.FuncsSig = p.FuncsSig
	for _, u := range p.Units {
		c.Units = append(c.Units, u.Clone())
	}
	return c
}

// Add appends a unit; adding a second unit with the same name is a
// consistency error.
func (p *Program) Add(u *ProgramUnit) {
	if p.Unit(u.Name) != nil {
		panic(&ConsistencyError{Msg: fmt.Sprintf("duplicate program unit %s", u.Name)})
	}
	p.Units = append(p.Units, u)
}

// Unit returns the unit named name, or nil.
func (p *Program) Unit(name string) *ProgramUnit {
	for _, u := range p.Units {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// Main returns the PROGRAM unit, or the first unit if none is marked.
func (p *Program) Main() *ProgramUnit {
	for _, u := range p.Units {
		if u.Kind == UnitProgram {
			return u
		}
	}
	if len(p.Units) > 0 {
		return p.Units[0]
	}
	return nil
}

// ConsistencyError is the error reported by the IR's internal
// consistency machinery (Polaris' p_assert / internal consistency
// errors). It is delivered by panic from mutating operations that would
// corrupt the representation, and as an ordinary error from Check.
type ConsistencyError struct {
	Msg string
}

// Error implements error.
func (e *ConsistencyError) Error() string { return "ir: consistency: " + e.Msg }

// Assert panics with a ConsistencyError when cond is false. It is the
// analogue of the paper's p_assert: assumptions stated explicitly and
// checked at run time.
func Assert(cond bool, msg string) {
	if !cond {
		panic(&ConsistencyError{Msg: msg})
	}
}
