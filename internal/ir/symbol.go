package ir

import (
	"fmt"
	"unsafe"
)

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

// bytes estimates what a deep copy of the symbol holds: the struct,
// its dimensions, and about 24 bytes a node of their bounds and its
// PARAMETER value.
func (s *Symbol) bytes() int {
	n := int(unsafe.Sizeof(*s)) + len(s.Dims)*int(unsafe.Sizeof(Dim{}))
	for _, d := range s.Dims {
		n += 24 * (nodes(d.Lo) + nodes(d.Hi))
	}
	return n + 24*nodes(s.Param)
}

// nodes is CountNodes, with nil as no node.
func nodes(e Expr) int {
	if e == nil {
		return 0
	}
	return CountNodes(e)
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
// A parsed table holds its symbols in one block, with its slices at
// their final length, but for the symbols it shares with the table
// parsed before it (SymbolBuilder.Table): those point into an earlier
// table's block. Symbols inserted later are allocated one at a time.
// A table's symbols are not written after the parse but by BindFormal,
// and a formal is never shared; so a clone shares every other symbol
// too, and a detached table (DetachAll) shares symbols only with the
// tables detached with it.
type SymbolTable struct {
	syms   []*Symbol
	hashes []uint32           // hashes[i] is nameHash(syms[i].Name)
	index  map[string]*Symbol // nil up to indexAbove symbols
}

const indexAbove = 32

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable { return &SymbolTable{} }

// Clone returns a table of its own over t's symbols: an Insert, Remove
// or FreshName on either never shows in the other. It points at t's
// non-formal symbols, which nothing writes, and copies each formal into
// one block, because BindFormal writes a formal. A struct copy is
// enough: BindFormal replaces the formal's Param and never writes into
// it.
func (t *SymbolTable) Clone() *SymbolTable {
	formals := 0
	for _, s := range t.syms {
		if s.Formal {
			formals++
		}
	}
	block := make([]Symbol, 0, formals)
	syms := make([]*Symbol, len(t.syms))
	for i, s := range t.syms {
		if s.Formal {
			block = append(block, *s)
			s = &block[len(block)-1]
		}
		syms[i] = s
	}
	return tableOf(syms, t.hashes)
}

// Detached is one table of a DetachAll batch.
type Detached struct {
	// Table is the table to copy, and after DetachAll its copy.
	Table *SymbolTable
	// Bytes estimates, after DetachAll, what the copy holds that no
	// copy before it in the batch holds: its table, its two slices, its
	// index and the symbols it is the first to hold.
	Bytes int
}

// DetachAll replaces each table of the batch with a deep copy, made in
// one pass: the copies share no symbol, dimension or expression with
// the tables they replace, nor with any table those share symbols with,
// so they keep none of their storage alive. A symbol that two or more
// of the tables hold (SymbolBuilder.Table and Clone share symbols so)
// is copied once, into a block beside the tables' own, and each copy
// points at that one copy; every other symbol is copied into its
// table's own block. So a copy whose table is dropped keeps the others'
// shared symbols alive, and nothing of its own. A batch of one table
// needs no map, and allocates the table, its slices and its block.
func DetachAll(batch []Detached) {
	// seen holds every symbol of the batch: nil when one table holds
	// it, the symbol itself when more do and it is not copied yet, and
	// its copy after.
	var seen map[*Symbol]*Symbol
	nshared := 0
	if len(batch) > 1 {
		seen = make(map[*Symbol]*Symbol)
		for _, d := range batch {
			for _, s := range d.Table.syms {
				if c, ok := seen[s]; !ok {
					seen[s] = nil
				} else if c == nil {
					seen[s] = s
					nshared++
				}
			}
		}
	}
	// Every block is made at its final size: the tables point into
	// them as they fill.
	shared := make([]Symbol, 0, nshared)
	for i := range batch {
		t, bytes := batch[i].Table, 0
		own := len(t.syms)
		for _, s := range t.syms {
			if seen[s] != nil {
				own--
			}
		}
		block := make([]Symbol, 0, own)
		syms := make([]*Symbol, len(t.syms))
		for j, s := range t.syms {
			c := seen[s]
			switch c {
			case nil:
				block = append(block, Symbol{})
				c = &block[len(block)-1]
			case s:
				shared = append(shared, Symbol{})
				c = &shared[len(shared)-1]
				seen[s] = c
			default:
				syms[j] = c
				continue
			}
			s.cloneInto(c)
			bytes += c.bytes()
			syms[j] = c
		}
		t = tableOf(syms, t.hashes)
		batch[i] = Detached{Table: t, Bytes: bytes + t.bytes()}
	}
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

// bytes estimates what the table holds apart from its symbols: the
// struct, its two slices and, past indexAbove symbols, its index at
// about 48 bytes an entry.
func (t *SymbolTable) bytes() int {
	n := int(unsafe.Sizeof(*t)) + cap(t.syms)*int(unsafe.Sizeof(t.syms[0])) + cap(t.hashes)*int(unsafe.Sizeof(t.hashes[0]))
	if t.index != nil {
		n += 48 * len(t.index)
	}
	return n
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

// BindFormal makes the formal name a PARAMETER constant of value val,
// which is what interprocedural constant propagation does to a formal
// every call passes the same constant. It is the one write to a
// table's symbol after the parse, and a formal is never shared with
// another table (SymbolBuilder.Table, Clone), so it writes t's alone.
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
//
// The dimensions of the symbols the table owns are copied into one
// block of their own, so the builder's symbols may point theirs at
// storage the caller reuses once Table returns (the parser's stack);
// a shared symbol copies nothing.
func (b *SymbolBuilder) Table(prev *SymbolTable) *SymbolTable {
	syms := make([]*Symbol, len(b.syms))
	own, ndims := len(b.syms), 0
	for i := range b.syms {
		if syms[i] = prev.equalTo(&b.syms[i]); syms[i] != nil {
			own--
		} else {
			ndims += len(b.syms[i].Dims)
		}
	}
	block := make([]Symbol, 0, own)
	var dims []Dim
	if ndims > 0 {
		dims = make([]Dim, 0, ndims)
	}
	for i := range b.syms {
		if syms[i] != nil {
			continue
		}
		block = append(block, b.syms[i])
		s := &block[len(block)-1]
		if len(s.Dims) > 0 {
			at := len(dims)
			dims = append(dims, s.Dims...)
			s.Dims = dims[at:len(dims):len(dims)]
		}
		syms[i] = s
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
