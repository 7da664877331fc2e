// Command unigen samples almost-uniform witnesses from a DIMACS CNF
// file (with optional "c ind" sampling-set and "x" XOR-clause lines).
//
// Usage:
//
//	unigen -n 10 -epsilon 6 -seed 1 -j 4 formula.cnf
//
// Witnesses are printed one per line as signed DIMACS literals over the
// sampling set. -j N draws them on a pool of N parallel solver
// sessions; the witnesses printed for a given -seed are the same for
// every -j (only wall-clock time changes).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"unigen"
)

func main() {
	n := flag.Int("n", 1, "number of witnesses to generate")
	epsilon := flag.Float64("epsilon", 6, "uniformity tolerance (> 1.71)")
	seed := flag.Uint64("seed", 1, "random seed")
	budget := flag.Int64("budget", 0, "conflict budget per SAT call (0 = unlimited)")
	jobs := flag.Int("j", 1, "parallel sampling workers (0 = all CPUs); sampling only: setup's ApproxMC rounds use up to GOMAXPROCS sessions")
	stats := flag.Bool("stats", false, "print merged run statistics (hash set, rounds, BSAT calls, XOR rows, propagations) to stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: unigen [flags] formula.cnf")
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

	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s, err := unigen.NewSampler(f, unigen.Options{
		Epsilon:      *epsilon,
		Seed:         *seed,
		MaxConflicts: *budget,
		Workers:      workers,
	})
	if err != nil {
		fatal(err)
	}

	vars := f.SamplingVars()
	ws, err := s.SampleN(*n) // ⊥ rounds are retried internally
	if err != nil {
		fatal(err)
	}
	for _, w := range ws {
		for _, v := range vars {
			if w.Get(v) {
				fmt.Printf("%d ", v)
			} else {
				fmt.Printf("-%d ", v)
			}
		}
		fmt.Println("0")
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "c success=%.3f avg-xor-len=%.1f easy=%v\n",
		st.SuccProb, st.AvgXORLen, st.EasyCase)
	if *stats {
		fmt.Fprintf(os.Stderr, "c hash vars %d of %d\n", len(s.HashSet()), len(vars))
		fmt.Fprintf(os.Stderr, "c rounds=%d samples=%d failures=%d bsat-calls=%d\n",
			st.Rounds, st.Samples, st.Failures, st.BSATCalls)
		fmt.Fprintf(os.Stderr, "c xor-rows=%d conflicts=%d propagations=%d\n",
			st.XORRows, st.Conflicts, st.Propagations)
		fmt.Fprintf(os.Stderr, "c learned=%d removed=%d gc-compactions=%d arena-bytes=%d\n",
			st.Learned, st.Removed, st.Compactions, st.ArenaBytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unigen:", err)
	os.Exit(1)
}
