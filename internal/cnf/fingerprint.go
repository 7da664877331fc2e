package cnf

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
)

// Fingerprint returns the canonical fingerprint of f: the SHA-256
// digest of its normalized DIMACS serialization. Formulas that differ
// only in clause order, literal order within a clause, duplicate
// literals/clauses, tautological clauses, XOR normalization, or
// sampling-set order and duplication fingerprint identically; formulas
// with different variable counts, clause sets, XOR constraints, or
// sampling sets do not. The fingerprint is the identity under which the
// service layer caches prepared formulas and the seed root of the
// preparation RNG (see core.PrepSeed), so it must be stable across
// processes and releases — it hashes DIMACS text, not Go memory.
func Fingerprint(f *Formula) [32]byte {
	g := Canonical(f)
	h := sha256.New()
	// A non-nil empty sampling set ("project onto nothing") serializes
	// identically to an unspecified one ("project onto all variables");
	// disambiguate with a leading tag byte.
	if f.SamplingSet == nil {
		h.Write([]byte{0})
	} else {
		h.Write([]byte{1})
	}
	if err := WriteDIMACS(h, g); err != nil {
		panic(err) // sha256 writers never error
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
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
	sort.Slice(g.XORs, func(i, j int) bool {
		a, b := g.XORs[i], g.XORs[j]
		for k := 0; k < len(a.Vars) && k < len(b.Vars); k++ {
			if a.Vars[k] != b.Vars[k] {
				return a.Vars[k] < b.Vars[k]
			}
		}
		if len(a.Vars) != len(b.Vars) {
			return len(a.Vars) < len(b.Vars)
		}
		return !a.RHS && b.RHS
	})

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

func clauseLess(a, b Clause) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
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
