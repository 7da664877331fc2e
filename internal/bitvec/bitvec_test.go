package bitvec

import (
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// solveOne blasts and returns one witness's variable values.
func solveOne(t *testing.T, c *Context, names ...string) (map[string]uint64, bool) {
	t.Helper()
	bl, err := c.Blast()
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New(bl.Formula, sat.Config{})
	if s.Solve() != sat.Sat {
		return nil, false
	}
	m := s.Model()
	out := map[string]uint64{}
	for _, n := range names {
		v, err := bl.Value(n, m)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = v
	}
	return out, true
}

func TestAddConstraint(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	c.Assert(c.Eq(c.Add(x, y), c.Const(100, 8)))
	vals, ok := solveOne(t, c, "x", "y")
	if !ok {
		t.Fatal("unsat")
	}
	if (vals["x"]+vals["y"])&0xff != 100 {
		t.Fatalf("x=%d y=%d", vals["x"], vals["y"])
	}
}

func TestMulFactoring(t *testing.T) {
	// Factor 143 = 11 × 13 with nontrivial factors.
	c := NewContext()
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	c.Assert(c.Eq(c.Mul(x, y), c.Const(143, 8)))
	c.Assert(c.Ult(c.Const(1, 8), x))
	c.Assert(c.Ult(c.Const(1, 8), y))
	c.Assert(c.Ult(x, c.Const(143, 8)))
	c.Assert(c.Ult(y, c.Const(143, 8)))
	vals, ok := solveOne(t, c, "x", "y")
	if !ok {
		t.Fatal("unsat")
	}
	if (vals["x"]*vals["y"])&0xff != 143 {
		t.Fatalf("x=%d y=%d", vals["x"], vals["y"])
	}
}

func TestSubNegShift(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	// x - x = 0, x<<1 == 2x, lshr(x<<4, 4) keeps low nibble.
	c.Assert(c.Eq(c.Sub(x, x), c.Const(0, 8)))
	c.Assert(c.Eq(c.Shl(x, 1), c.Add(x, x)))
	c.Assert(c.Eq(c.Lshr(c.Shl(x, 4), 4), c.And(x, c.Const(0x0f, 8))))
	if _, ok := solveOne(t, c, "x"); !ok {
		t.Fatal("tautologies unsat?!")
	}
	// These are tautologies: the formula must have 256 witnesses.
	bl, err := c.Blast()
	if err != nil {
		t.Fatal(err)
	}
	res := bsat.Enumerate(bl.Formula, 300, bsat.Options{})
	if n := len(res.Witnesses); !res.Exhausted || n != 256 {
		t.Fatalf("count = %d (exhausted=%v), want 256", n, res.Exhausted)
	}
}

func TestExtractConcat(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	hi := c.Extract(x, 4, 4)
	lo := c.Extract(x, 0, 4)
	c.Assert(c.Eq(c.Concat(hi, lo), x)) // tautology
	c.Assert(c.Eq(c.Concat(lo, hi), c.Const(0x5a, 8)))
	vals, ok := solveOne(t, c, "x")
	if !ok {
		t.Fatal("unsat")
	}
	if vals["x"] != 0xa5 {
		t.Fatalf("x = %#x, want 0xa5", vals["x"])
	}
}

func TestIteAndBools(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 4)
	y := c.Var("y", 4)
	cond := c.Ult(x, y)
	z := c.Ite(cond, x, y) // z = min(x,y)
	c.Assert(c.Eq(z, c.Const(3, 4)))
	c.Assert(c.BoolAnd(c.Ule(c.Const(3, 4), x), c.Ule(c.Const(3, 4), y)))
	vals, ok := solveOne(t, c, "x", "y")
	if !ok {
		t.Fatal("unsat")
	}
	mn := vals["x"]
	if vals["y"] < mn {
		mn = vals["y"]
	}
	if mn != 3 {
		t.Fatalf("min(x,y) = %d, want 3 (x=%d y=%d)", mn, vals["x"], vals["y"])
	}
}

func TestUnsatConstraint(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 4)
	c.Assert(c.Ult(x, c.Const(0, 4))) // nothing is < 0
	bl, err := c.Blast()
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New(bl.Formula, sat.Config{})
	if s.Solve() != sat.Unsat {
		t.Fatal("x < 0 should be UNSAT")
	}
}

func TestSamplingSetIsVariables(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 6)
	y := c.Var("y", 6)
	c.Assert(c.Ule(x, y))
	bl, err := c.Blast()
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Formula.SamplingSet) != 12 {
		t.Fatalf("sampling set = %d bits, want 12", len(bl.Formula.SamplingSet))
	}
	// Witness count: #{(x,y): x ≤ y} = 64*65/2 = 2080.
	res := bsat.Enumerate(bl.Formula, 3000, bsat.Options{})
	if n := len(res.Witnesses); !res.Exhausted || n != 2080 {
		t.Fatalf("count = %d (exhausted=%v), want 2080", n, res.Exhausted)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	c := NewContext()
	c.Add(c.Var("a", 4), c.Var("b", 5))
}

func TestRandomExpressionsAgainstSemantics(t *testing.T) {
	// Property: for random (x,y) and a fixed expression DAG, asserting
	// outputs equal to concrete evaluations is satisfiable and every
	// witness decodes to values consistent with uint64 semantics.
	rng := randx.New(301)
	for iter := 0; iter < 25; iter++ {
		const w = 6
		xv := rng.Uint64() & mask(w)
		yv := rng.Uint64() & mask(w)
		c := NewContext()
		x := c.Var("x", w)
		y := c.Var("y", w)
		c.Assert(c.Eq(x, c.Const(xv, w)))
		c.Assert(c.Eq(y, c.Const(yv, w)))
		sum := c.Add(x, y)
		prod := c.Mul(x, y)
		xo := c.Xor(x, y)
		c.Assert(c.Eq(sum, c.Const((xv+yv)&mask(w), w)))
		c.Assert(c.Eq(prod, c.Const((xv*yv)&mask(w), w)))
		c.Assert(c.Eq(xo, c.Const(xv^yv, w)))
		if (xv < yv) != (yv > xv) {
			t.Fatal("impossible")
		}
		lt := c.Ult(x, y)
		if xv < yv {
			c.Assert(lt)
		} else {
			c.Assert(c.BoolNot(lt))
		}
		if _, ok := solveOne(t, c, "x"); !ok {
			t.Fatalf("iter %d: semantics mismatch (x=%d y=%d)", iter, xv, yv)
		}
	}
}
