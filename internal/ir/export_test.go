package ir

// CountNameCompares makes table and builder lookups add the entries
// they compare a name with to *n, until the returned stop is called.
func CountNameCompares(n *int) (stop func()) {
	nameCompares = n
	return func() { nameCompares = nil }
}

// Remove deletes name from the table; missing names are ignored.
func (t *SymbolTable) Remove(name string) {
	if i := t.find(name); i >= 0 {
		t.syms = append(t.syms[:i], t.syms[i+1:]...)
		t.hashes = append(t.hashes[:i], t.hashes[i+1:]...)
		delete(t.index, name)
	}
}

// EnsurePar returns the loop's annotation, allocating it if needed.
func (s *DoStmt) EnsurePar() *ParInfo {
	if s.Par == nil {
		s.Par = &ParInfo{}
	}
	return s.Par
}
