package ir

// CountNameCompares makes table and builder lookups add the entries
// they compare a name with to *n, until the returned stop is called.
func CountNameCompares(n *int) (stop func()) {
	nameCompares = n
	return func() { nameCompares = nil }
}
