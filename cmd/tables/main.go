// Command tables regenerates Table 1 and Table 2 of the DAC'14 paper:
// the runtime/success-probability/XOR-length comparison of UniGen
// against the UniWit baseline across the benchmark families.
//
// Usage:
//
//	tables -table 1 -scale small -samples 25
//	tables -table 2 -scale medium -samples 10 -uniwit-cap 5
package main

import (
	"flag"
	"fmt"
	"os"

	"unigen/internal/benchgen"
	"unigen/internal/experiments"
)

func main() {
	table := flag.Int("table", 1, "which table to regenerate (1 or 2)")
	scaleStr := flag.String("scale", "small", "benchmark scale: small|medium|full")
	samples := flag.Int("samples", 25, "UniGen samples per benchmark")
	uwCap := flag.Int("uniwit-cap", 10, "UniWit samples per benchmark")
	epsilon := flag.Float64("epsilon", 6, "UniGen tolerance (paper: 6)")
	seed := flag.Uint64("seed", 1, "random seed")
	budget := flag.Int64("budget", 200000, "conflict budget per SAT call")
	propBudget := flag.Int64("prop-budget", 30_000_000, "propagation budget per SAT call")
	flag.Parse()

	scale, err := benchgen.ParseScale(*scaleStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(2)
	}
	cfg := experiments.Config{
		Scale:           scale,
		Epsilon:         *epsilon,
		Samples:         *samples,
		Seed:            *seed,
		MaxConflicts:    *budget,
		MaxPropagations: *propBudget,
		UniWitSampleCap: *uwCap,
	}
	rows := experiments.RunTable(*table, cfg)
	if err := experiments.WriteTable(os.Stdout, *table, rows); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}
