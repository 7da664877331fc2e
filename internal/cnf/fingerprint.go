package cnf

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"slices"
)

// Fingerprint returns the canonical fingerprint of f: the SHA-256
// digest of its normalized DIMACS serialization, the bytes
// WriteCanonical writes. Formulas that differ only in clause order,
// literal order within a clause, duplicate literals/clauses,
// tautological clauses, XOR normalization, or sampling-set order and
// duplication fingerprint identically; formulas
// with different variable counts, clause sets, XOR constraints, or
// sampling sets do not. The fingerprint is the identity under which the
// service layer caches prepared formulas and the seed root of the
// preparation RNG (see core.PrepSeed), so it must be stable across
// processes and releases — it hashes DIMACS text, not Go memory.
func Fingerprint(f *Formula) [32]byte {
	h := sha256.New()
	if err := WriteCanonical(h, f); err != nil {
		panic(err) // sha256 writers never error
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// WriteCanonical writes the bytes Fingerprint hashes: a tag byte, 0 for
// an unspecified (nil) sampling set and 1 for a declared one, then the
// WriteDIMACS text of Canonical(f). The tag tells a declared empty set
// ("project onto nothing") from an unspecified one ("project onto all
// variables"), which write the same text. The persistent store's setup
// frame (core.Setup.Encode) holds these bytes as its formula.
func WriteCanonical(w io.Writer, f *Formula) error {
	tag := []byte{0}
	if f.SamplingSet != nil {
		tag[0] = 1
	}
	if _, err := w.Write(tag); err != nil {
		return err
	}
	return WriteDIMACS(w, Canonical(f))
}

// FingerprintString returns the fingerprint in lowercase hex, the form
// used for cache keys, /stats output, and logs.
func FingerprintString(f *Formula) string {
	fp := Fingerprint(f)
	return hex.EncodeToString(fp[:])
}

// Canonical builds the normal form Fingerprint hashes: per-clause
// normalization (sorted literals, duplicates and tautologies dropped),
// clause list sorted and deduplicated, XOR clauses normalized and
// sorted, sampling set sorted and deduplicated. The input is not
// modified. Any computation that must be a function of the fingerprint
// alone — not of the clause order a caller happened to post — runs on
// this form (see core.NewSetup's hash-set pass).
func Canonical(f *Formula) *Formula {
	g := &Formula{NumVars: f.NumVars}
	grow := func(v Var) { g.NumVars = max(g.NumVars, int(v)) }
	for _, c := range f.Clauses {
		if norm, taut := NormalizeClause(c); !taut {
			g.Clauses = append(g.Clauses, norm)
			for _, l := range norm {
				grow(l.Var())
			}
		}
	}
	for _, x := range f.XORs {
		vars, rhs := NormalizeXOR(x.Vars, x.RHS)
		switch {
		case len(vars) > 0:
			g.XORs = append(g.XORs, XORClause{Vars: vars, RHS: rhs})
			for _, v := range vars {
				grow(v)
			}
		case rhs:
			g.Clauses = append(g.Clauses, Clause{}) // 0 = 1, as AddXOR records it
		}
	}
	slices.SortFunc(g.Clauses, slices.Compare[Clause])
	g.Clauses = slices.CompactFunc(g.Clauses, slices.Equal[Clause])
	slices.SortFunc(g.XORs, xorCmp)
	g.XORs = slices.CompactFunc(g.XORs, func(a, b XORClause) bool { return xorCmp(a, b) == 0 })
	if f.SamplingSet != nil {
		g.SamplingSet = slices.Compact(slices.Sorted(slices.Values(f.SamplingSet)))
		for _, v := range g.SamplingSet {
			grow(v)
		}
	}
	return g
}

// IsCanonical reports whether f is its own canonical form: whether
// Canonical(f) has f's variable count, clauses, XOR clauses and
// sampling set, in f's order. It is one linear pass under Canonical's
// comparators, so a reader of canonical text checks it without
// canonicalizing again.
func IsCanonical(f *Formula) bool {
	in := func(v Var) bool { return v >= 1 && int(v) <= f.NumVars }
	for i, c := range f.Clauses {
		if i > 0 && slices.Compare(f.Clauses[i-1], c) >= 0 {
			return false
		}
		// A normalized clause names each variable once, in order.
		for j, l := range c {
			if !in(l.Var()) || j > 0 && c[j-1].Var() >= l.Var() {
				return false
			}
		}
	}
	for i, x := range f.XORs {
		if len(x.Vars) == 0 || i > 0 && xorCmp(f.XORs[i-1], x) >= 0 || !increasing(x.Vars, in) {
			return false
		}
	}
	return increasing(f.SamplingSet, in)
}

// increasing reports whether vs is strictly increasing and in holds on
// each of its variables.
func increasing(vs []Var, in func(Var) bool) bool {
	for i, v := range vs {
		if !in(v) || i > 0 && vs[i-1] >= v {
			return false
		}
	}
	return true
}

// xorCmp orders XOR clauses by their variable lists, as slices.Compare
// does, then a false RHS before a true one.
func xorCmp(a, b XORClause) int {
	if c := slices.Compare(a.Vars, b.Vars); c != 0 || a.RHS == b.RHS {
		return c
	}
	if a.RHS {
		return 1
	}
	return -1
}
