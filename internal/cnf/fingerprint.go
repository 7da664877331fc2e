package cnf

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
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

	seen := map[string]bool{}
	for _, c := range f.Clauses {
		norm, taut := NormalizeClause(c)
		if taut {
			continue
		}
		key := litKey(norm)
		if seen[key] {
			continue
		}
		seen[key] = true
		g.Clauses = append(g.Clauses, norm)
		for _, l := range norm {
			if int(l.Var()) > g.NumVars {
				g.NumVars = int(l.Var())
			}
		}
	}
	sort.Slice(g.Clauses, func(i, j int) bool { return clauseLess(g.Clauses[i], g.Clauses[j]) })

	seenX := map[string]bool{}
	for _, x := range f.XORs {
		vars, rhs := NormalizeXOR(x.Vars, x.RHS)
		if len(vars) == 0 {
			if rhs {
				// 0 = 1: record as the empty clause, matching AddXOR.
				if !seen[""] {
					seen[""] = true
					g.Clauses = append([]Clause{{}}, g.Clauses...)
				}
			}
			continue
		}
		key := xorKey(vars, rhs)
		if seenX[key] {
			continue
		}
		seenX[key] = true
		g.XORs = append(g.XORs, XORClause{Vars: vars, RHS: rhs})
		for _, v := range vars {
			if int(v) > g.NumVars {
				g.NumVars = int(v)
			}
		}
	}
	sort.Slice(g.XORs, func(i, j int) bool { return xorLess(g.XORs[i], g.XORs[j]) })

	if f.SamplingSet != nil {
		set := append([]Var(nil), f.SamplingSet...)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		out := set[:0]
		for i, v := range set {
			if i > 0 && v == set[i-1] {
				continue
			}
			out = append(out, v)
			if int(v) > g.NumVars {
				g.NumVars = int(v)
			}
		}
		g.SamplingSet = out
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
		if i > 0 && !clauseLess(f.Clauses[i-1], c) {
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
		if len(x.Vars) == 0 || i > 0 && !xorLess(f.XORs[i-1], x) || !increasing(x.Vars, in) {
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

func clauseLess(a, b Clause) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func xorLess(a, b XORClause) bool {
	for k := 0; k < len(a.Vars) && k < len(b.Vars); k++ {
		if a.Vars[k] != b.Vars[k] {
			return a.Vars[k] < b.Vars[k]
		}
	}
	if len(a.Vars) != len(b.Vars) {
		return len(a.Vars) < len(b.Vars)
	}
	return !a.RHS && b.RHS
}

func litKey(c Clause) string {
	b := make([]byte, 0, len(c)*4)
	for _, l := range c {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

func xorKey(vars []Var, rhs bool) string {
	b := make([]byte, 0, len(vars)*4+1)
	for _, v := range vars {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	if rhs {
		b = append(b, 1)
	}
	return string(b)
}
