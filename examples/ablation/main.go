// Ablation: measure, across the whole 16-program suite, how much each
// Polaris technique contributes — remove one technique at a time from
// the full pipeline and report the geometric-mean speedup on the
// simulated 8-processor machine, plus the programs that lose more than
// 20% of their full-pipeline speedup. (This regenerates the implicit
// claim of the paper's Section 3: every technique family is necessary
// for some of the codes.)
package main

import (
	"context"
	"fmt"
	"log"

	"polaris/internal/suite"
)

func main() {
	pts, err := suite.NewRunner().Sweep(context.Background(), 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(suite.AblationTable(pts))
}
