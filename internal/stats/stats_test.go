package stats

import (
	"math"
	"testing"
)

func TestOccurrenceHistogram(t *testing.T) {
	counts := map[string]int{"a": 3, "b": 1, "c": 1, "d": 3}
	h := OccurrenceHistogram(counts)
	if len(h) != 2 {
		t.Fatalf("histogram = %v", h)
	}
	if h[0] != (Point{1, 2}) || h[1] != (Point{3, 2}) {
		t.Fatalf("histogram = %v", h)
	}
}

func TestTVDBetweenIdentical(t *testing.T) {
	a := map[string]int{"x": 10, "y": 20}
	if tvd := TVDBetween(a, a, 30, 30); tvd != 0 {
		t.Fatalf("tvd = %v", tvd)
	}
}

func TestTVDBetweenDisjoint(t *testing.T) {
	a := map[string]int{"x": 10}
	b := map[string]int{"y": 10}
	if tvd := TVDBetween(a, b, 10, 10); math.Abs(tvd-1) > 1e-12 {
		t.Fatalf("tvd = %v, want 1", tvd)
	}
}
