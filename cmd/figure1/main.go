// Command figure1 regenerates Figure 1 of the DAC'14 paper: the
// uniformity comparison between UniGen and the ideal uniform sampler US
// on the case110 instance (16384 witnesses). It prints both histogram
// series as (occurrence count, #witnesses) pairs; plot them to
// reproduce the figure.
//
// The paper uses N = 4,000,000 samples; the default here is 20,000 so a
// run finishes in minutes on one core (same UniGen-vs-US agreement,
// sparser counts). Pass -n 4000000 for the paper's exact setting.
package main

import (
	"flag"
	"fmt"
	"os"

	"unigen/internal/benchgen"
	"unigen/internal/experiments"
)

func main() {
	n := flag.Int("n", 20000, "samples per sampler (paper: 4000000)")
	seed := flag.Uint64("seed", 1, "random seed")
	epsilon := flag.Float64("epsilon", 6, "UniGen tolerance")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Scale = benchgen.ScaleSmall
	cfg.Seed = *seed
	cfg.Epsilon = *epsilon

	res, err := experiments.RunFigure1(*n, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figure1:", err)
		os.Exit(1)
	}
	if err := experiments.WriteFigure1(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "figure1:", err)
		os.Exit(1)
	}
}
