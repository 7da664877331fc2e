package baseline

import (
	"errors"
	"math"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

func TestUniWitEasyCase(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2) // 3 witnesses ≤ pivot
	u := NewUniWit(f, UniWitOptions{})
	rng := randx.New(31)
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		w, err := u.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		counts[w.Project(f.SamplingVars())]++
	}
	if len(counts) != 3 {
		t.Fatalf("distinct = %d, want 3", len(counts))
	}
	for _, c := range counts {
		if math.Abs(float64(c)-n/3.0) > 6*math.Sqrt(n/3.0) {
			t.Fatalf("count %d far from uniform %d", c, n/3)
		}
	}
}

func TestUniWitUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	u := NewUniWit(f, UniWitOptions{})
	if _, err := u.Sample(randx.New(32)); err == nil {
		t.Fatal("sampled from unsat formula")
	}
}

func TestUniWitHashingPathProducesValidWitnesses(t *testing.T) {
	// 2^7 = 128 free-cube models > pivot forces the hashing loop.
	f := cnf.New(7)
	u := NewUniWit(f, UniWitOptions{})
	rng := randx.New(33)
	got := 0
	for i := 0; i < 60 && got < 10; i++ {
		w, err := u.Sample(rng)
		if errors.Is(err, ErrFailed) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		got++
	}
	if got == 0 {
		t.Fatal("no successful samples")
	}
	st := u.Stats()
	if st.XORRows() == 0 {
		t.Fatal("hashing path issued no XOR rows")
	}
	// Full-support XORs: average length ≈ |X|/2 = 3.5.
	if avg := st.AvgXORLen(); avg < 2 || avg > 5 {
		t.Fatalf("avg xor len = %.2f, want ≈ 3.5", avg)
	}
}

func TestUniWitFullSupportXORs(t *testing.T) {
	// Even when a small sampling set is declared on the formula, UniWit
	// must ignore it and hash the full support — that is the documented
	// deficiency UniGen fixes.
	f := cnf.New(16)
	f.SamplingSet = []cnf.Var{1, 2}
	u := NewUniWit(f, UniWitOptions{})
	rng := randx.New(34)
	for i := 0; i < 40; i++ {
		_, err := u.Sample(rng)
		if err != nil && !errors.Is(err, ErrFailed) {
			t.Fatal(err)
		}
	}
	if avg := u.Stats().AvgXORLen(); avg < 5 {
		t.Fatalf("avg xor len = %.2f; want ≈ |X|/2 = 8 (full support)", avg)
	}
}

func TestXORSampleValidity(t *testing.T) {
	f := cnf.New(6)
	f.AddClause(1, 2, 3)
	x, err := NewXORSample(f, XORSampleOptions{S: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(35)
	got := 0
	for i := 0; i < 50; i++ {
		w, err := x.Sample(rng)
		if errors.Is(err, ErrFailed) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		got++
	}
	if got == 0 {
		t.Fatal("no successes")
	}
	if p := x.SuccessProb(); p <= 0 || p > 1 {
		t.Fatalf("success prob %v", p)
	}
}

func TestXORSampleBadS(t *testing.T) {
	f := cnf.New(2)
	if _, err := NewXORSample(f, XORSampleOptions{S: -1}); err == nil {
		t.Fatal("negative S accepted")
	}
}

func TestXORSampleOvershootFails(t *testing.T) {
	// S much larger than log2|R_F| empties almost every cell.
	f := cnf.New(4) // 16 models
	x, err := NewXORSample(f, XORSampleOptions{S: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(36)
	fails := 0
	for i := 0; i < 30; i++ {
		if _, err := x.Sample(rng); errors.Is(err, ErrFailed) {
			fails++
		}
	}
	if fails < 20 {
		t.Fatalf("only %d/30 failures with absurd S; expected most to fail", fails)
	}
}

func TestUSUniform(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3) // 7 witnesses
	u, err := NewUS(f, 100, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Count() != 7 {
		t.Fatalf("Count = %d, want 7", u.Count())
	}
	rng := randx.New(37)
	counts := map[string]int{}
	const n = 7000
	for i := 0; i < n; i++ {
		w := u.Sample(rng)
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		counts[w.Project(f.SamplingVars())]++
	}
	for _, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 6*math.Sqrt(n/7.0) {
			t.Fatalf("count %d far from uniform %d", c, n/7)
		}
	}
}

func TestUSUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	if _, err := NewUS(f, 10, sat.Config{}); err == nil {
		t.Fatal("US accepted unsat formula")
	}
}

func TestUSLimit(t *testing.T) {
	f := cnf.New(8) // 256 models
	if _, err := NewUS(f, 10, sat.Config{}); err == nil {
		t.Fatal("US accepted over-limit formula")
	}
}
