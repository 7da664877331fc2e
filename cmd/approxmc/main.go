// Command approxmc approximately counts the witnesses of a DIMACS CNF
// formula projected onto its sampling set, within a (1+ε) factor with
// confidence 1−δ (ApproxMC2 of IJCAI 2016: nested XOR hashes and a
// logarithmic search over the hash count).
//
// Usage:
//
//	approxmc -epsilon 0.8 -delta 0.2 formula.cnf
package main

import (
	"flag"
	"fmt"
	"os"

	"unigen"
)

func main() {
	epsilon := flag.Float64("epsilon", 0.8, "tolerance")
	delta := flag.Float64("delta", 0.2, "error probability")
	seed := flag.Uint64("seed", 1, "random seed")
	budget := flag.Int64("budget", 0, "conflict budget per SAT call (0 = unlimited)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: approxmc [flags] formula.cnf")
		flag.PrintDefaults()
		os.Exit(2)
	}
	file, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer file.Close()
	f, err := unigen.ParseDIMACS(file)
	if err != nil {
		fatal(err)
	}
	c, err := unigen.ApproxCount(f, *epsilon, *delta, unigen.Options{Seed: *seed, MaxConflicts: *budget})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("s mc %v\n", c)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "approxmc:", err)
	os.Exit(1)
}
