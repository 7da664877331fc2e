// Package stats provides the statistical machinery behind the paper's
// uniformity evaluation: occurrence histograms (the Figure 1 series)
// and the total-variation distance between two empirical
// distributions.
package stats

import (
	"math"
	"sort"
)

// Point is one (x, y) pair of a histogram series.
type Point struct {
	X int // occurrence count
	Y int // number of distinct witnesses generated exactly X times
}

// OccurrenceHistogram converts per-witness counts into the Figure 1
// series: for each occurrence count x, the number of distinct witnesses
// generated exactly x times. Witnesses never generated are not
// included.
func OccurrenceHistogram(counts map[string]int) []Point {
	freq := map[int]int{}
	for _, c := range counts {
		freq[c]++
	}
	xs := make([]int, 0, len(freq))
	for x := range freq {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	out := make([]Point, len(xs))
	for i, x := range xs {
		out[i] = Point{X: x, Y: freq[x]}
	}
	return out
}

// TVDBetween computes the total-variation distance between two
// empirical distributions with sample sizes na and nb.
func TVDBetween(a, b map[string]int, na, nb int) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	keys := map[string]struct{}{}
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	tvd := 0.0
	for k := range keys {
		tvd += math.Abs(float64(a[k])/float64(na) - float64(b[k])/float64(nb))
	}
	return tvd / 2
}
