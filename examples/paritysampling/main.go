// Command paritysampling exercises the library on a parity-constrained
// instance of the kind the DAC'14 evaluation builds from ISCAS89
// circuits: a block of free variables with several XOR (parity)
// conditions layered on top. It shows (a) native XOR clauses end to
// end and (b) that the sampled distribution is statistically flat
// across the surviving solution space.
package main

import (
	"fmt"
	"log"
	"math"

	"unigen"
)

func main() {
	const n = 12
	f := unigen.NewFormula(n)
	// Three parity conditions over random-ish subsets: cuts 2^12 → 2^9.
	f.AddXOR([]unigen.Var{1, 3, 5, 7, 9, 11}, true)
	f.AddXOR([]unigen.Var{2, 4, 6, 8}, false)
	f.AddXOR([]unigen.Var{1, 2, 3, 4, 10, 12}, true)

	count, err := unigen.ExactProjectedCount(f, 1<<13)
	if err != nil {
		log.Fatalf("count: %v", err)
	}
	fmt.Printf("solution space: %v witnesses (expected 2^9 = 512)\n", count)

	s, err := unigen.NewSampler(f, unigen.Options{Epsilon: 6, Seed: 11})
	if err != nil {
		log.Fatalf("sampler: %v", err)
	}

	const samples = 4096
	counts := map[string]int{}
	ws, err := s.SampleN(samples)
	if err != nil {
		log.Fatalf("sample: %v", err)
	}
	vars := f.SamplingVars()
	for _, w := range ws {
		key := ""
		for _, b := range w.Bits(vars) {
			if b {
				key += "1"
			} else {
				key += "0"
			}
		}
		counts[key]++
	}

	// Report the empirical spread versus a perfect uniform sampler.
	mean := float64(samples) / 512
	varSum := 0.0
	for _, c := range counts {
		d := float64(c) - mean
		varSum += d * d
	}
	varSum += float64(512-len(counts)) * mean * mean
	std := math.Sqrt(varSum / 512)
	fmt.Printf("distinct witnesses seen: %d / 512\n", len(counts))
	fmt.Printf("occurrences: mean %.2f, std %.2f (binomial noise alone: %.2f)\n",
		mean, std, math.Sqrt(mean*(1-1.0/512)))
	fmt.Printf("sampler stats: %+v\n", s.Stats())
}
