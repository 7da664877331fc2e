package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across different seeds", same)
	}
}

func TestStreamMatchesSplitSequence(t *testing.T) {
	// Stream(master, i) is documented as the i-th output of a SplitMix64
	// generator seeded with master, i.e. New(master) advanced i+1 times.
	master := New(77)
	for i := uint64(0); i < 16; i++ {
		want := New(master.Uint64())
		got := Stream(77, i)
		for k := 0; k < 4; k++ {
			if got.Uint64() != want.Uint64() {
				t.Fatalf("Stream(77, %d) diverged from master output %d", i, i)
			}
		}
	}
}

func TestStreamChildrenDiffer(t *testing.T) {
	// Distinct round indices and distinct masters must yield streams
	// with no early collisions.
	seen := map[uint64]bool{}
	for _, master := range []uint64{0, 1, 0xdeadbeef} {
		for i := uint64(0); i < 64; i++ {
			r := Stream(master, i)
			for k := 0; k < 4; k++ {
				v := r.Uint64()
				if seen[v] {
					t.Fatalf("collision across streams (master=%d, i=%d)", master, i)
				}
				seen[v] = true
			}
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		x := r.Intn(m)
		return x >= 0 && x < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(4)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("bucket %d: %d vs expected %.0f", i, c, want)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(5)
	const trials = 100000
	ones := 0
	for i := 0; i < trials; i++ {
		if r.Bool() {
			ones++
		}
	}
	if math.Abs(float64(ones)-trials/2) > 5*math.Sqrt(trials/4) {
		t.Fatalf("ones = %d of %d", ones, trials)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 = %v", x)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(7)
	for n := 0; n < 30; n++ {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, x := range p {
			if x < 0 || x >= n || seen[x] {
				t.Fatalf("Perm(%d) = %v invalid", n, p)
			}
			seen[x] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(8)
	child := parent.Split()
	// Child stream should not track parent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions between parent and child", same)
	}
}

func TestBitsPacking(t *testing.T) {
	r := New(9)
	dst := make([]byte, 4)
	r.Bits(dst, 9) // bits beyond 9 must remain zero
	if dst[1]&0xFE != 0 || dst[2] != 0 || dst[3] != 0 {
		t.Fatalf("high bits leaked: %v", dst)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	_ = r.Uint64() // must not panic
}

// TestStateResumesStream: a generator rebuilt from State continues the
// stream exactly where the original stands.
func TestStateResumesStream(t *testing.T) {
	r := New(42)
	for range 5 {
		r.Uint64()
	}
	c := New(r.State())
	for i := range 10 {
		if a, b := r.Uint64(), c.Uint64(); a != b {
			t.Fatalf("draw %d: %x from the original, %x from the copy", i, a, b)
		}
	}
}
