// Package lib is the unread-code checker's fixture. Read and T.Used
// have a reader, T.Name is called through Namer, T.Allowed is on the
// allowlist, and Unread has no reader.
package lib

// Namer is the interface T.Name satisfies.
type Namer interface{ Name() string }

// T carries the fixture's methods.
type T struct{}

// Name is called only through Namer.
func (T) Name() string { return "t" }

// Used is called by the command, although the allowlist names it.
func (T) Used() {}

// Allowed has no reader, and the allowlist names it.
func (T) Allowed() {}

// Read is called by the command.
func Read() Namer { return T{} }

// Unread has no reader.
func Unread() {}
