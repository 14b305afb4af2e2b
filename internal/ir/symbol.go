package ir

import "fmt"

// Type is the Fortran type of a symbol or expression.
type Type uint8

// Fortran types of the supported subset.
const (
	TypeUnknown Type = iota
	TypeInteger
	TypeReal
	TypeLogical
)

// String returns the Fortran keyword for the type.
func (t Type) String() string {
	switch t {
	case TypeInteger:
		return "INTEGER"
	case TypeReal:
		return "REAL"
	case TypeLogical:
		return "LOGICAL"
	}
	return "UNKNOWN"
}

// Dim is one array dimension LO:HI. Lo defaults to 1. Hi == nil means
// an assumed-size dimension (declared "*"), legal only for formals.
type Dim struct {
	Lo Expr
	Hi Expr
}

// Clone deep-copies the dimension.
func (d Dim) Clone() Dim {
	c := Dim{}
	if d.Lo != nil {
		c.Lo = d.Lo.Clone()
	}
	if d.Hi != nil {
		c.Hi = d.Hi.Clone()
	}
	return c
}

// LoOr1 returns the lower bound, or the constant 1 if not written.
func (d Dim) LoOr1() Expr {
	if d.Lo == nil {
		return Int(1)
	}
	return d.Lo
}

// Symbol is one entry of a unit's symbol table. Type and Formal sit
// together at the end, so a symbol is 80 bytes, not 88.
type Symbol struct {
	Name string
	// Dims is non-nil for arrays.
	Dims []Dim
	// Param holds the value of a PARAMETER constant, or nil.
	Param Expr
	// Common names the COMMON block the symbol lives in, or "".
	Common string
	Type   Type
	// Formal marks dummy arguments.
	Formal bool
}

// IsArray reports whether the symbol is declared with dimensions.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// cloneInto deep-copies the symbol into c.
func (s *Symbol) cloneInto(c *Symbol) {
	*c = *s
	if s.Dims != nil {
		c.Dims = make([]Dim, len(s.Dims))
		for i, d := range s.Dims {
			c.Dims[i] = d.Clone()
		}
	}
	if s.Param != nil {
		c.Param = s.Param.Clone()
	}
}

// SymbolTable maps names to symbols and remembers declaration order.
// Lookups of undeclared names follow the Fortran implicit rule
// (I..N integer, otherwise real) when implicit typing is enabled.
//
// The table is its declaration-ordered slice plus one hash word per
// symbol, which a lookup scans before it compares any name. Program
// units declare a few dozen names: that is as fast as a map and a
// fraction of its memory. A table that outgrows indexAbove gets a map
// beside the slice, so a unit of any size parses in linear time.
//
// A cloned table holds its symbols in one block, with its slices at
// their final length; symbols inserted later are allocated one at a
// time. A parsed table is the same but for the symbols it shares with
// the table parsed before it (SymbolBuilder.Table): those point into
// an earlier table's block. A table's symbols are not written after
// the parse but by BindFormal, and a formal is never shared.
type SymbolTable struct {
	syms   []*Symbol
	hashes []uint32           // hashes[i] is nameHash(syms[i].Name)
	index  map[string]*Symbol // nil up to indexAbove symbols
}

const indexAbove = 32

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable { return &SymbolTable{} }

// Clone deep-copies the table into one block of symbols: the clone
// shares no symbol with t, nor with any table t shares symbols with.
func (t *SymbolTable) Clone() *SymbolTable {
	block := make([]Symbol, len(t.syms))
	syms := make([]*Symbol, len(t.syms))
	for i, s := range t.syms {
		s.cloneInto(&block[i])
		syms[i] = &block[i]
	}
	return tableOf(syms, t.hashes)
}

// tableOf returns a table over syms, which it takes, with its own copy
// of hashes, their name hashes.
func tableOf(syms []*Symbol, hashes []uint32) *SymbolTable {
	t := &SymbolTable{syms: syms, hashes: make([]uint32, len(hashes))}
	copy(t.hashes, hashes)
	if len(syms) > indexAbove {
		t.buildIndex()
	}
	return t
}

func (t *SymbolTable) buildIndex() {
	t.index = make(map[string]*Symbol, len(t.syms))
	for _, s := range t.syms {
		t.index[s.Name] = s
	}
}

// nameHash is FNV-1a.
func nameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// find returns the position of name in the table, or -1.
func (t *SymbolTable) find(name string) int {
	h := nameHash(name)
	for i, hi := range t.hashes {
		if hi == h && t.syms[i].Name == name {
			compared(i + 1)
			return i
		}
	}
	compared(len(t.hashes))
	return -1
}

// nameCompares, when non-nil, counts the entries lookups of tables and
// builders compare a name with: a hash word scanned or a map probe
// each. It is a deterministic measure of lookup work for tests that
// would otherwise hold a lookup's cost to a clock (export_test.go);
// nil everywhere else.
var nameCompares *int

func compared(n int) {
	if nameCompares != nil {
		*nameCompares += n
	}
}

// Insert adds sym to the table. Inserting a name twice is an internal
// consistency error (the Polaris aliasing rule).
func (t *SymbolTable) Insert(sym *Symbol) {
	Assert(sym.Name != "", "SymbolTable.Insert: empty name")
	if t.Lookup(sym.Name) != nil {
		panic(&ConsistencyError{Msg: fmt.Sprintf("duplicate symbol %s", sym.Name)})
	}
	t.syms = append(t.syms, sym)
	t.hashes = append(t.hashes, nameHash(sym.Name))
	if t.index != nil {
		t.index[sym.Name] = sym
	} else if len(t.syms) > indexAbove {
		t.buildIndex()
	}
}

// Lookup returns the symbol for name, or nil.
func (t *SymbolTable) Lookup(name string) *Symbol {
	if t.index != nil {
		compared(1)
		return t.index[name]
	}
	if i := t.find(name); i >= 0 {
		return t.syms[i]
	}
	return nil
}

// Remove deletes name from the table; missing names are ignored.
func (t *SymbolTable) Remove(name string) {
	if i := t.find(name); i >= 0 {
		t.syms = append(t.syms[:i], t.syms[i+1:]...)
		t.hashes = append(t.hashes[:i], t.hashes[i+1:]...)
		delete(t.index, name)
	}
}

// BindFormal makes the formal name a PARAMETER constant of value val,
// which is what interprocedural constant propagation does to a formal
// every call passes the same constant. It is the one write to a
// table's symbol after the parse, and a formal is never shared with
// another table (SymbolBuilder.Table), so it writes t's alone.
func (t *SymbolTable) BindFormal(name string, val Expr) {
	s := t.Lookup(name)
	if s == nil || !s.Formal {
		panic(&ConsistencyError{Msg: fmt.Sprintf("BindFormal: %s is not a formal", name)})
	}
	s.Formal, s.Param = false, val
}

// Declare returns the symbol for name, creating it with the implicit
// Fortran type if it does not exist.
func (t *SymbolTable) Declare(name string) *Symbol {
	if s := t.Lookup(name); s != nil {
		return s
	}
	s := &Symbol{Name: name, Type: ImplicitType(name)}
	t.Insert(s)
	return s
}

// All returns the symbols in declaration order without copying: the
// slice is the table's own, for callers that read it and neither keep
// it nor change the table while they range over it.
func (t *SymbolTable) All() []*Symbol { return t.syms }

// Names returns a snapshot of the declared names in declaration order.
func (t *SymbolTable) Names() []string {
	names := make([]string, len(t.syms))
	for i, s := range t.syms {
		names[i] = s.Name
	}
	return names
}

// Len returns the number of symbols.
func (t *SymbolTable) Len() int { return len(t.syms) }

// FreshName returns a name with the given prefix that does not collide
// with any declared symbol, and declares sym, which it takes, under it.
func (t *SymbolTable) FreshName(prefix string, sym Symbol) string {
	name := prefix
	for i := 0; ; i++ {
		if i > 0 {
			name = fmt.Sprintf("%s%d", prefix, i)
		}
		if t.Lookup(name) == nil {
			break
		}
	}
	sym.Name = name
	t.Insert(&sym)
	return name
}

// SymbolBuilder collects a unit's symbols by value while the unit is
// built, and Table packs them into one exact-size block. Its storage
// is reused from unit to unit: the zero value is ready, and after
// Table or Reset it holds nothing of the symbols it had.
type SymbolBuilder struct {
	syms   []Symbol
	hashes []uint32
	index  map[string]int32 // empty up to indexAbove symbols
}

// find returns the position of name in the builder, or -1.
func (b *SymbolBuilder) find(name string) int {
	if len(b.syms) > indexAbove {
		compared(1)
		if i, ok := b.index[name]; ok {
			return int(i)
		}
		return -1
	}
	h := nameHash(name)
	for i, hi := range b.hashes {
		if hi == h && b.syms[i].Name == name {
			compared(i + 1)
			return i
		}
	}
	compared(len(b.hashes))
	return -1
}

// Lookup returns the symbol for name, or nil. The pointer is good
// until the next Declare of a new name.
func (b *SymbolBuilder) Lookup(name string) *Symbol {
	if i := b.find(name); i >= 0 {
		return &b.syms[i]
	}
	return nil
}

// Declare returns the symbol for name, adding it with the implicit
// Fortran type if it is new. The pointer is good until the next
// Declare of a new name.
func (b *SymbolBuilder) Declare(name string) *Symbol {
	if s := b.Lookup(name); s != nil {
		return s
	}
	Assert(name != "", "SymbolBuilder.Declare: empty name")
	b.syms = append(b.syms, Symbol{Name: name, Type: ImplicitType(name)})
	b.hashes = append(b.hashes, nameHash(name))
	if len(b.syms) > indexAbove {
		if b.index == nil {
			b.index = make(map[string]int32)
		}
		// All of them when the table first outgrows the scan.
		for i := len(b.index); i < len(b.syms); i++ {
			b.index[b.syms[i].Name] = int32(i)
		}
	}
	return &b.syms[len(b.syms)-1]
}

// Table returns the symbols declared since the last Table or Reset as
// a table, in declaration order, and resets the builder. prev is the
// table of the unit before, or nil. A symbol that is not a formal and
// equals prev's symbol of its name is not copied: the table points at
// prev's. Whole programs declare the same COMMON members and
// PARAMETERs in unit after unit, so most of a unit's symbols are
// shared, and only the others are packed into the table's block.
func (b *SymbolBuilder) Table(prev *SymbolTable) *SymbolTable {
	syms := make([]*Symbol, len(b.syms))
	own := len(b.syms)
	for i := range b.syms {
		if syms[i] = prev.equalTo(&b.syms[i]); syms[i] != nil {
			own--
		}
	}
	block := make([]Symbol, 0, own)
	for i := range b.syms {
		if syms[i] == nil {
			block = append(block, b.syms[i])
			syms[i] = &block[len(block)-1]
		}
	}
	t := tableOf(syms, b.hashes)
	b.Reset()
	return t
}

// equalTo returns t's symbol equal to s, or nil when there is none,
// when s is a formal, or when t is nil. Equal is every field, with
// the dimensions and the PARAMETER value compared by Equal. A field
// added to Symbol must be compared here too: TestTableSharesOnlyEqualSymbols
// reads the fields off the type and fails until it is.
func (t *SymbolTable) equalTo(s *Symbol) *Symbol {
	if t == nil || s.Formal {
		return nil
	}
	p := t.Lookup(s.Name)
	if p == nil || p.Type != s.Type || p.Formal || p.Common != s.Common || !equalOrNil(p.Param, s.Param) ||
		len(p.Dims) != len(s.Dims) {
		return nil
	}
	for i, d := range s.Dims {
		if !equalOrNil(p.Dims[i].Lo, d.Lo) || !equalOrNil(p.Dims[i].Hi, d.Hi) {
			return nil
		}
	}
	return p
}

// equalOrNil is Equal, under which nil equals only nil.
func equalOrNil(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return Equal(a, b)
}

// Reset forgets every symbol, keeping the storage. Slots past the
// length are never written but by append, so zeroing up to the length
// leaves the whole array zero.
func (b *SymbolBuilder) Reset() {
	clear(b.syms)
	clear(b.hashes)
	b.syms = b.syms[:0]
	b.hashes = b.hashes[:0]
	clear(b.index)
}

// ImplicitType returns the Fortran implicit type for a name: INTEGER
// for names starting with I..N, REAL otherwise.
func ImplicitType(name string) Type {
	if name == "" {
		return TypeUnknown
	}
	c := name[0]
	if c >= 'I' && c <= 'N' {
		return TypeInteger
	}
	return TypeReal
}
