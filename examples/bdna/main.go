// BDNA example — the paper's Figure 5. The outer loop gathers through
// a compressed index list: privatizing the work arrays A and IND needs
// the GSA-based demand-driven analysis plus monotonic-variable
// identification (P increments by one under a condition; IND(P) = K
// writes a dense prefix whose values lie in [1, I-1]).
package main

import (
	"context"
	"fmt"
	"log"

	"polaris"
	"polaris/internal/suite"
)

func main() {
	p, _ := suite.ByName("bdna")
	prog, err := polaris.Parse(p.Source)
	if err != nil {
		log.Fatal(err)
	}

	res, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Polaris verdicts ===")
	fmt.Print(res.Summary())

	// The outer I loop of the gather/compress nest must be parallel,
	// and that only works because A and IND are privatized.
	noPriv := polaris.FullTechniques()
	noPriv.ArrayPrivatization = false
	resNoPriv, err := polaris.Compile(context.Background(), prog, polaris.WithTechniques(noPriv))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nparallel loops with array privatization:    %d\n", res.ParallelLoops())
	fmt.Printf("parallel loops without array privatization: %d\n", resNoPriv.ParallelLoops())

	serial, err := polaris.ExecuteProgram(prog, polaris.ExecOptions{Serial: true})
	if err != nil {
		log.Fatal(err)
	}
	// Validate mode runs parallel iterations in reverse order: any
	// order dependence would change the checksum.
	par, err := polaris.Execute(res, polaris.ExecOptions{Processors: 8, Validate: true})
	if err != nil {
		log.Fatal(err)
	}
	refSum, _ := serial.Probe("OUT", "RESULT")
	gotSum, _ := par.Probe("OUT", "RESULT")
	fmt.Printf("\nserial checksum:   %g\n", refSum)
	fmt.Printf("parallel checksum: %g (reverse iteration order)\n", gotSum)
	fmt.Printf("speedup on 8 processors: %.2f\n", float64(serial.Cycles)/float64(par.Cycles))
}
