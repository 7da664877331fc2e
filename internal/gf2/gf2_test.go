package gf2

import "testing"

func TestWordsAndTailMask(t *testing.T) {
	cases := []struct {
		ncols, words int
		tail         uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{63, 1, (1 << 63) - 1},
		{64, 1, ^uint64(0)},
		{65, 2, 1},
		{130, 3, 3},
	}
	for _, c := range cases {
		if got := Words(c.ncols); got != c.words {
			t.Errorf("Words(%d) = %d, want %d", c.ncols, got, c.words)
		}
		if got := TailMask(c.ncols); got != c.tail {
			t.Errorf("TailMask(%d) = %#x, want %#x", c.ncols, got, c.tail)
		}
	}
}

func TestRowOps(t *testing.T) {
	r := NewRow(130)
	if !r.Empty() || r.Len() != 0 {
		t.Fatal("fresh row not empty")
	}
	for _, c := range []int{0, 63, 64, 129} {
		r.Set(c)
		if !r.Get(c) {
			t.Fatalf("Set(%d) not visible", c)
		}
	}
	if r.Empty() || r.Len() != 4 || r.Get(1) {
		t.Fatalf("Empty=%v Len=%d Get(1)=%v", r.Empty(), r.Len(), r.Get(1))
	}
	var got []int
	r.ForEachSet(func(c int) { got = append(got, c) })
	want := []int{0, 63, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEachSet = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachSet = %v, want %v", got, want)
		}
	}
}

// TestXorAndParity: ParityAnd folds the XOR of a row's coefficients
// under a mask, within one word and across words.
func TestXorAndParity(t *testing.T) {
	a := NewRow(100)
	a.Set(1)
	a.Set(99)
	mask := make([]uint64, Words(100))
	mask[0] = ^uint64(0)
	if !ParityAnd(a.Bits, mask) { // only bit 1 lands in word 0
		t.Fatal("ParityAnd word-0 fold wrong")
	}
	mask[1] = ^uint64(0)
	if ParityAnd(a.Bits, mask) { // bits 1 and 99: even
		t.Fatal("ParityAnd full fold wrong")
	}
}
