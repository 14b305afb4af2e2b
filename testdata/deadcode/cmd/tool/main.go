// Command tool reads the fixture library.
package main

import "fixture/internal/lib"

func main() {
	println(lib.Read().Name())
	lib.T{}.Used()
}
