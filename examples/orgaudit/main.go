// Orgaudit reproduces the paper's §IV-B experiment end to end: generate
// the organisation-scale dataset (~90k users, ~350k permissions, ~50k
// roles with every inefficiency class planted at the paper's reported
// counts), audit it with core.Analyze — Role Diet over the dataset's
// sparse rows — and print the planted-vs-detected table.
//
// Run the full scale (a couple of seconds, a few hundred MB):
//
//	go run ./examples/orgaudit
//
// Or a miniature:
//
//	go run ./examples/orgaudit -scale 100
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
)

func main() {
	scale := flag.Int("scale", 1, "divide the paper-scale counts by this factor")
	flag.Parse()
	if err := run(*scale); err != nil {
		log.Fatal(err)
	}
}

func run(scale int) error {
	res, err := bench.RunOrg(scale)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	if !res.Matches() {
		return fmt.Errorf("detected counts diverge from planted ground truth")
	}
	fmt.Println("\nall detected counts match the planted ground truth exactly")
	fmt.Println("(the paper reports its method took ~2 minutes at this scale; the DBSCAN")
	fmt.Println("and HNSW baselines were halted after 24 hours)")
	return nil
}
